"""Epoch-typed AdamW state and the cost of resuming from a mixed checkpoint.

Optimizer state is six fields (weights W, first moment m, second moment v,
last gradient g, RNG state, data position), each stamped with the epoch it
was persisted at. A consistent state has all six tags equal. Strict mode
refuses to step a state with mismatched tags, naming the offending fields;
Coerce mode silently steps whatever it is given, which is what an untyped
training loop does when it loads a partially persisted checkpoint.

The one-step cost of a lagging first moment has a closed form: stepping a
state whose m missed one update (from a zero prior moment) shifts the new
m by beta1 * (1 - beta1) * g_skipped, a phantom gradient fraction of 0.09
at beta1 = 0.9. trajectory_divergence measures how that error compounds on
a diagonal quadratic task; validation_checkpoint shows a loss-only gate
accepts such states because the weights are untouched.

The AdamW arithmetic lives in one routine, _adamw_update. adamw_step runs
it into fresh arrays and returns a new state; trajectory_divergence steps
both runs' weights and moments in place with it, in the rows of one block
per call, so that repeated calls find their pages still mapped.

trajectory_divergence reports the weight distance as an L2 norm whose sum
of squares is numpy's pairwise sum, not a BLAS dot product, so the printed
digits do not depend on how many threads BLAS runs. On a noisy task of at
least _DRAW_AHEAD_MIN_DIM (100,000) dimensions _noise_stream draws each
step's batch noise one step ahead on a helper thread while the caller
steps on the current batch; the draws are the bits task.noise gives, and
smaller or noiseless tasks draw inline, on the caller's thread alone.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np


class StepMode(str, Enum):
    STRICT = "strict"
    COERCE = "coerce"


class TypeViolationError(TypeError):
    """A Strict-mode step was asked to consume epoch-inconsistent state."""

    def __init__(self, mismatches: dict[str, int], expected: int):
        self.mismatches = dict(mismatches)
        self.expected = expected
        detail = ", ".join(f"{name} tag {tag}" for name, tag in mismatches.items())
        super().__init__(
            f"epoch-inconsistent optimizer state: {detail} vs W tag {expected}")


@dataclass(frozen=True)
class AdamWHyperparams:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta1 < 1.0) or not (0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not (0.0 < self.lr < math.inf) or not (0.0 < self.eps < math.inf):
            raise ValueError("lr and eps must be positive and finite")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ValueError("weight decay must be non-negative and finite")


@dataclass(frozen=True)
class EpochTags:
    w: int
    m: int
    v: int
    g: int
    rng: int
    d: int

    def __post_init__(self) -> None:
        if min(self.w, self.m, self.v, self.g, self.rng, self.d) < 0:
            raise ValueError("epoch tags must be non-negative")

    @classmethod
    def uniform(cls, epoch: int) -> EpochTags:
        return cls(epoch, epoch, epoch, epoch, epoch, epoch)

    def as_dict(self) -> dict[str, int]:
        return {"w": self.w, "m": self.m, "v": self.v,
                "g": self.g, "rng": self.rng, "d": self.d}

    @property
    def consistent(self) -> bool:
        vals = self.as_dict().values()
        return len(set(vals)) == 1

    def advanced_per_field(self) -> EpochTags:
        return EpochTags(self.w + 1, self.m + 1, self.v + 1,
                         self.g + 1, self.rng + 1, self.d + 1)


def _mix64(x: int) -> int:
    # splitmix64 finalizer: deterministic RNG-state advance per step.
    x = (x + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    return z ^ (z >> 31)


@dataclass(frozen=True)
class EpochTypedOptimizerState:
    w: np.ndarray
    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    rng: int
    data_pos: int
    tags: EpochTags

    def __post_init__(self) -> None:
        shapes = {a.shape for a in (self.w, self.m, self.v, self.g)}
        if len(shapes) != 1:
            raise ValueError("state arrays must share one shape")
        (shape,) = shapes
        if len(shape) != 1:
            raise ValueError(f"state arrays must be 1-D, got shape {shape}")
        if np.any(self.v < 0.0):
            raise ValueError("second moment must be non-negative")

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])


def initial_state(dim: int, *, w0=None, rng_seed: int = 0) -> EpochTypedOptimizerState:
    w = np.zeros(dim) if w0 is None else np.array(w0, dtype=np.float64)
    return EpochTypedOptimizerState(
        w=w, m=np.zeros(dim), v=np.zeros(dim), g=np.zeros(dim), rng=rng_seed,
        data_pos=0, tags=EpochTags.uniform(0))


def _adamw_update(w, m, v, grad, hyper: AdamWHyperparams, t: int, *,
                  w_out, m_out, v_out, update, scratch) -> None:
    """The AdamW arithmetic at bias-correction step count t, into *_out.

    The operations and their order are those of
      m_new = b1 * m + (1 - b1) * g
      v_new = b2 * v + ((1 - b2) * g) * g
      w_new = w - lr * (m_hat / (sqrt(v_hat) + eps) + wd * w)
    written with out= and in-place operators (each rounds the same way), so
    the routine allocates nothing. Each output may be its own input (w_out
    may also be update); update and scratch must share no memory with any
    other argument, and grad none with m_out or v_out.
    """
    b1, b2 = hyper.beta1, hyper.beta2
    np.multiply(grad, 1.0 - b1, out=scratch)
    np.multiply(m, b1, out=m_out)
    m_out += scratch
    np.multiply(grad, 1.0 - b2, out=scratch)
    scratch *= grad
    np.multiply(v, b2, out=v_out)
    v_out += scratch
    np.divide(m_out, 1.0 - b1 ** t, out=update)         # m_hat
    np.divide(v_out, 1.0 - b2 ** t, out=scratch)        # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += hyper.eps
    update /= scratch
    np.multiply(w, hyper.weight_decay, out=scratch)
    update += scratch
    update *= hyper.lr
    np.subtract(w, update, out=w_out)


def adamw_step(state: EpochTypedOptimizerState, gradient,
               hyper: AdamWHyperparams,
               mode: StepMode = StepMode.STRICT) -> EpochTypedOptimizerState:
    """One decoupled-weight-decay Adam step, epoch-indexed.

    The bias-correction step count is the W tag plus one, so a state
    persisted at epoch e steps with denominators 1 - beta^(e+1).

    Neither the state nor the gradient is written. The returned state owns
    fresh arrays: its g is a copy of the gradient, and its w, m and v share
    no memory with any input. _adamw_update does the arithmetic into four
    fresh arrays, the new w landing in the update buffer.
    """
    if mode is StepMode.STRICT and not state.tags.consistent:
        expected = state.tags.w
        mismatches = {name: tag for name, tag in state.tags.as_dict().items()
                      if tag != expected}
        raise TypeViolationError(mismatches, expected)
    grad = np.array(gradient, dtype=np.float64)
    if grad.shape != state.w.shape:
        raise ValueError("gradient shape does not match the state")
    t = state.tags.w + 1
    m_new, v_new, w_new, scratch = (np.empty_like(grad) for _ in range(4))
    _adamw_update(state.w, state.m, state.v, grad, hyper, t, w_out=w_new,
                  m_out=m_new, v_out=v_new, update=w_new, scratch=scratch)
    tags = (EpochTags.uniform(t) if mode is StepMode.STRICT
            else state.tags.advanced_per_field())
    return EpochTypedOptimizerState(
        w=w_new, m=m_new, v=v_new, g=grad,
        rng=_mix64(state.rng), data_pos=state.data_pos + 1, tags=tags)


def moment_skew(g_prev, beta1: float):
    """Closed-form first-moment shift from one skipped update: b1(1-b1)g."""
    return beta1 * (1.0 - beta1) * np.asarray(g_prev, dtype=np.float64)


def make_skew_pair(g_skipped, hyper: AdamWHyperparams, *, epoch: int = 1,
                   w=None) -> tuple[EpochTypedOptimizerState, EpochTypedOptimizerState]:
    """Reference state and its m-lagging twin, identical in every other field.

    The pair realizes the closed form exactly: the lagging moment is the
    zero vector it held before the skipped update, so the reference m is
    (1 - beta1) * g_skipped. W, v, g, rng, and data position are shared and
    tagged at `epoch`; only the twin's m (value and tag) lags by one. The
    two states hold the same w, v and g arrays, copies of the caller's.
    """
    if epoch < 1:
        raise ValueError("skew requires at least one completed epoch")
    g = np.array(g_skipped, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError(f"skipped gradient must be 1-D, got shape {g.shape}")
    dim = g.shape[0]
    w = np.zeros(dim) if w is None else np.array(w, dtype=np.float64)
    v = (1.0 - hyper.beta2) * g
    v *= g
    tags = EpochTags.uniform(epoch)
    ref = EpochTypedOptimizerState(w=w, m=(1.0 - hyper.beta1) * g, v=v, g=g, rng=7,
                                   data_pos=epoch, tags=tags)
    lag = EpochTypedOptimizerState(w=w, m=np.zeros(dim), v=v, g=g, rng=7,
                                   data_pos=epoch, tags=replace(tags, m=epoch - 1))
    return ref, lag


def skew_consistency_check(pair: tuple[EpochTypedOptimizerState, EpochTypedOptimizerState],
                           gradient, hyper: AdamWHyperparams) -> np.ndarray:
    """One Coerce step on each state of the pair; returns the m difference.

    The pair must differ only in the first moment (value and tag); anything
    else differing is a malformed pair, not a moment skew. Only each stepped
    state's m is kept, so the check never holds two stepped states at once.
    """
    ref, lag = pair
    if ref.tags.m == lag.tags.m:
        raise ValueError("pair does not lag in m")
    same_tags = all(getattr(ref.tags, f) == getattr(lag.tags, f)
                    for f in ("w", "v", "g", "rng", "d"))
    same_fields = (np.array_equal(ref.w, lag.w) and np.array_equal(ref.v, lag.v)
                   and np.array_equal(ref.g, lag.g) and ref.rng == lag.rng
                   and ref.data_pos == lag.data_pos)
    if not (same_tags and same_fields):
        raise ValueError("pair differs in fields other than m")
    m_ref = adamw_step(ref, gradient, hyper, StepMode.COERCE).m
    m_lag = adamw_step(lag, gradient, hyper, StepMode.COERCE).m
    return m_ref - m_lag


# ---------------------------------------------------------------------------
# Quadratic task and trajectory divergence
# ---------------------------------------------------------------------------


def _standard_normal(seed: int, step: int, out: np.ndarray) -> np.ndarray:
    """The normals of numpy's stream [seed, step], written into out and returned."""
    np.random.default_rng([seed, step]).standard_normal(out=out)
    return out


@dataclass(frozen=True, eq=False)
class QuadraticTask:
    """Diagonal quadratic with optional per-step batch noise.

    Batch noise perturbs the effective target: the batch loss at noise xi
    is 0.5 * sum(A * (w - target - scale * xi)^2), and the batch gradient
    is its derivative. Noise is a pure function of (seed, step), so two
    trajectories replaying the same steps see identical batches.

    Build tasks with `of`, which copies curvature and target into
    read-only float64 arrays. Tasks compare by identity.
    """

    curvature: np.ndarray
    target: np.ndarray
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.curvature.ndim != 1 or self.target.ndim != 1:
            raise ValueError("curvature and target must be 1-D, got shapes "
                             f"{self.curvature.shape} and {self.target.shape}")
        if self.curvature.shape != self.target.shape:
            raise ValueError("curvature and target must have the same dimension")
        if self.curvature.size < 1:
            raise ValueError("dimension must be at least 1")
        if not (np.all(np.isfinite(self.curvature)) and np.all(np.isfinite(self.target))):
            raise ValueError("curvature and target must be finite")
        if np.any(self.curvature <= 0):
            raise ValueError("curvature must be positive definite")
        if not (0.0 <= self.noise_scale < math.inf):
            raise ValueError("noise scale must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @classmethod
    def of(cls, curvature, target, *, noise_scale: float = 0.0,
           seed: int = 0) -> QuadraticTask:
        curvature = np.array(curvature, dtype=np.float64)
        target = np.array(target, dtype=np.float64)
        curvature.flags.writeable = target.flags.writeable = False
        return cls(curvature=curvature, target=target,
                   noise_scale=noise_scale, seed=seed)

    @property
    def dim(self) -> int:
        return len(self.curvature)

    def noise(self, step: int) -> np.ndarray:
        if self.noise_scale == 0.0:
            return np.zeros(self.dim)
        return _standard_normal(self.seed, step, np.empty(self.dim))

    def held_out_noise(self) -> np.ndarray:
        return self.noise(0x5EED)

    def loss(self, w) -> float:
        sq = np.subtract(np.asarray(w, dtype=np.float64), self.target)
        np.square(sq, out=sq)
        sq *= self.curvature
        return float(0.5 * np.sum(sq))

    def batch_loss(self, w, xi) -> float:
        w = np.asarray(w, dtype=np.float64)
        shifted = self.target + self.noise_scale * np.asarray(xi)
        return float(0.5 * np.sum(self.curvature * (w - shifted) ** 2))

    def gradient(self, w, xi: np.ndarray) -> np.ndarray:
        """curvature * (w - (target + noise_scale * xi)) in one fresh array.

        xi, a draw such as noise(step), is only read: one draw can serve
        several trajectories.
        """
        out = np.multiply(xi, self.noise_scale)
        np.add(self.target, out, out=out)
        np.subtract(np.asarray(w, dtype=np.float64), out, out=out)
        out *= self.curvature
        return out


def run_trajectory(task: QuadraticTask, hyper: AdamWHyperparams, steps: int, *,
                   w0=None) -> list[EpochTypedOptimizerState]:
    """States s_0..s_steps of a consistent trajectory on the task."""
    state = initial_state(task.dim, w0=w0, rng_seed=task.seed)
    states = [state]
    for k in range(steps):
        state = adamw_step(state, task.gradient(state.w, task.noise(k)), hyper)
        states.append(state)
    return states


# A noisy task of at least this many dimensions draws its noise one step
# ahead on a one-worker executor. That pays only while the second core takes
# the worker up at once, and on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
# that held for a minute or two at a time. trajectory_divergence at horizon
# 50, 10 alternating pairs: while it held, ahead won 10 of 10 from dim 8,192
# up (1.4-1.5x at 100,000); while it did not, or with the other core busy,
# ahead lost by more than inline's quartile spread somewhere in 16,384 to
# 65,536 and stayed within that spread from 100,000 up.
_DRAW_AHEAD_MIN_DIM = 100_000


@contextmanager
def _noise_stream(task: QuadraticTask, steps: int):
    """An iterator over task.noise(0), ..., task.noise(steps - 1).

    A noiseless task, or one of fewer than _DRAW_AHEAD_MIN_DIM dimensions,
    draws inline through task.noise. A wider noisy task draws ahead: a
    one-worker executor fills draw k + 1 while the caller steps on draw k.
    Like task.noise, each draw is a fresh array, allocated by the caller's
    thread, so no draw is written after it is handed over. The worker runs
    _standard_normal alone, the bits task.noise gives, and calls no public
    entry point. Its exception reaches the caller at next(), and the
    executor's with block joins the worker however the stream is left.
    """
    if task.noise_scale == 0.0 or task.dim < _DRAW_AHEAD_MIN_DIM:
        yield map(task.noise, range(steps))
        return
    # Imported here, so that a process that never draws ahead never loads it.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1, thread_name_prefix="epochsim-noise") as pool:
        def draw(k):
            return pool.submit(_standard_normal, task.seed, k, np.empty(task.dim))

        def drawn_ahead(pending):
            for k in range(1, steps + 1):
                xi = pending.result()
                if k < steps:
                    pending = draw(k)
                yield xi

        yield drawn_ahead(draw(0))


@dataclass(frozen=True)
class DivergenceRow:
    step: int
    distance: float
    ref_loss: float
    mixed_loss: float


@dataclass(frozen=True)
class DivergenceSeries:
    skew_epoch: int
    horizon: int
    rows: tuple[DivergenceRow, ...]


def trajectory_divergence(task: QuadraticTask, hyper: AdamWHyperparams,
                          skew_epoch: int, horizon: int, *,
                          w0=None) -> DivergenceSeries:
    """Reference vs skew-loaded trajectory under an identical batch stream.

    At skew_epoch the mixed run reloads the reference state but with the
    first moment from one epoch earlier (the partially persisted
    checkpoint); both runs then continue on the same noise stream, drawn
    once per step. Rows report the per-step weight-space distance, the L2
    norm of the weight difference with its squares summed by numpy's
    pairwise sum, and both losses.

    The call takes its whole working set as the eight rows of one block:
    the reference's w, m and v, the mixed run's w, m and v, and one update
    and one scratch row that serve every step of both runs. The noise comes
    from _noise_stream, which on a noisy task of at least
    _DRAW_AHEAD_MIN_DIM dimensions draws it ahead on a helper thread,
    joined before the call returns or raises. Each run's w, m and v step in
    place through _adamw_update, the arithmetic of adamw_step. Neither w0
    nor the task's arrays nor a noise draw is written.

    One block rather than a dozen arrays keeps repeated calls from
    faulting their pages in again. glibc maps the first block with mmap;
    freeing it raises the mmap threshold to the block's size and the trim
    threshold to twice that (mallopt(3)). Later blocks then come from the
    heap, which is no longer trimmed between calls while what the caller
    frees at once stays under twice the block: 12.8 MB at dim 1e5. The
    saving depends on the block's size, so a change that resizes it must
    measure the faults again.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not (1 <= skew_epoch < horizon):
        raise ValueError("skew epoch must satisfy 1 <= skew_epoch < horizon")
    if w0 is not None:
        w0 = np.asarray(w0, dtype=np.float64)
        if w0.shape != (task.dim,):
            raise ValueError("state arrays must share one shape")
    w, m, v, mixed_w, mixed_m, mixed_v, update, scratch = np.empty((8, task.dim))
    w[...] = 0.0 if w0 is None else w0
    m.fill(0.0)
    v.fill(0.0)
    with _noise_stream(task, horizon) as draws:
        rows = []
        for k in range(horizon + 1):
            if k > 0:
                xi = next(draws)
                if k == skew_epoch:
                    mixed_m[...] = m
                # Both runs correct bias with t = k, as adamw_step's tags give:
                # a strict step k tags the reference's W with k, the mixed state
                # takes the reference's W tag at skew_epoch, and a Coerce step
                # advances every tag once.
                _adamw_update(w, m, v, task.gradient(w, xi), hyper, k, w_out=w,
                              m_out=m, v_out=v, update=update, scratch=scratch)
                if k > skew_epoch:
                    _adamw_update(mixed_w, mixed_m, mixed_v, task.gradient(mixed_w, xi),
                                  hyper, k, w_out=mixed_w, m_out=mixed_m,
                                  v_out=mixed_v, update=update, scratch=scratch)
            if k == skew_epoch:
                mixed_w[...] = w
                mixed_v[...] = v
            ref_loss = task.loss(w)
            if k < skew_epoch:
                rows.append(DivergenceRow(step=k, distance=0.0, ref_loss=ref_loss,
                                          mixed_loss=ref_loss))
            else:
                np.subtract(w, mixed_w, out=scratch)
                distance = math.sqrt(np.add.reduce(np.square(scratch, out=scratch)))
                rows.append(DivergenceRow(step=k, distance=distance, ref_loss=ref_loss,
                                          mixed_loss=task.loss(mixed_w)))
    return DivergenceSeries(skew_epoch=skew_epoch, horizon=horizon, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Checkpoint validation gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    observed_loss: float
    reference_loss: float
    threshold: float


def validation_checkpoint(loaded_state: EpochTypedOptimizerState,
                          task: QuadraticTask, reference_loss: float,
                          delta: float) -> ValidationResult:
    """Accept iff the held-out batch loss sits within delta of the reference.

    The gate reads only the weights, so it is sound for weight corruption
    but blind to moment skew: a state whose m lags with W untouched passes.
    """
    if delta <= 0.0:
        raise ValueError("acceptance threshold must be positive")
    observed = task.batch_loss(loaded_state.w, task.held_out_noise())
    return ValidationResult(
        accepted=abs(observed - reference_loss) <= delta,
        observed_loss=observed, reference_loss=reference_loss, threshold=delta)


def default_validation_threshold(task: QuadraticTask, w_ref) -> float:
    """Three empirical standard deviations of batch-noise loss at w_ref,
    over 64 batches drawn from seed 1234."""
    rng = np.random.default_rng(1234)
    losses = [task.batch_loss(w_ref, rng.standard_normal(task.dim))
              for _ in range(64)]
    spread = float(np.std(losses))
    return max(3.0 * spread, 1e-12)
