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
"""

from __future__ import annotations

import math
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
        if np.any(self.v < 0.0):
            raise ValueError("second moment must be non-negative")

    @classmethod
    def make(cls, w, m, v, g, rng: int, data_pos: int,
             tags: EpochTags) -> EpochTypedOptimizerState:
        arr = lambda x: np.array(x, dtype=np.float64, copy=True)
        return cls(w=arr(w), m=arr(m), v=arr(v), g=arr(g),
                   rng=rng, data_pos=data_pos, tags=tags)

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])

    @property
    def consistent(self) -> bool:
        return self.tags.consistent


def initial_state(dim: int, *, w0=None, rng_seed: int = 0) -> EpochTypedOptimizerState:
    w = np.zeros(dim) if w0 is None else np.array(w0, dtype=np.float64)
    return EpochTypedOptimizerState(
        w=w, m=np.zeros(dim), v=np.zeros(dim), g=np.zeros(dim), rng=rng_seed,
        data_pos=0, tags=EpochTags.uniform(0))


def adamw_step(state: EpochTypedOptimizerState, gradient,
               hyper: AdamWHyperparams,
               mode: StepMode = StepMode.STRICT) -> EpochTypedOptimizerState:
    """One decoupled-weight-decay Adam step, epoch-indexed.

    The bias-correction step count is the W tag plus one, so a state
    persisted at epoch e steps with denominators 1 - beta^(e+1).

    Neither the state nor the gradient is written. The returned state owns
    fresh arrays: its g is a copy of the gradient, and its w, m and v share
    no memory with any input.
    """
    if mode is StepMode.STRICT and not state.tags.consistent:
        expected = state.tags.w
        mismatches = {name: tag for name, tag in state.tags.as_dict().items()
                      if tag != expected}
        raise TypeViolationError(mismatches, expected)
    grad = np.array(gradient, dtype=np.float64)
    if grad.shape != state.w.shape:
        raise ValueError("gradient shape does not match the state")
    b1, b2 = hyper.beta1, hyper.beta2
    t = state.tags.w + 1
    # The operations and their order are those of
    #   m_new = b1 * m + (1 - b1) * g
    #   v_new = b2 * v + ((1 - b2) * g) * g
    #   w_new = w - lr * (m_hat / (sqrt(v_hat) + eps) + wd * w)
    # written with out= and in-place operators (each rounds the same way),
    # so the step builds four arrays besides the gradient copy.
    scratch = np.multiply(grad, 1.0 - b1)
    m_new = np.multiply(state.m, b1)
    m_new += scratch
    np.multiply(grad, 1.0 - b2, out=scratch)
    scratch *= grad
    v_new = np.multiply(state.v, b2)
    v_new += scratch
    update = np.divide(m_new, 1.0 - b1 ** t)            # m_hat
    np.divide(v_new, 1.0 - b2 ** t, out=scratch)        # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += hyper.eps
    update /= scratch
    np.multiply(state.w, hyper.weight_decay, out=scratch)
    update += scratch
    update *= hyper.lr
    w_new = np.subtract(state.w, update, out=update)
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
    tagged at `epoch`; only the twin's m (value and tag) lags by one.
    """
    if epoch < 1:
        raise ValueError("skew requires at least one completed epoch")
    g_skipped = np.asarray(g_skipped, dtype=np.float64)
    dim = g_skipped.shape[0]
    w_arr = np.zeros(dim) if w is None else np.asarray(w, dtype=np.float64)
    v = (1.0 - hyper.beta2) * g_skipped * g_skipped
    m_ref = (1.0 - hyper.beta1) * g_skipped
    ref = EpochTypedOptimizerState.make(
        w=w_arr, m=m_ref, v=v, g=g_skipped, rng=7, data_pos=epoch,
        tags=EpochTags.uniform(epoch))
    lag_tags = replace(EpochTags.uniform(epoch), m=epoch - 1)
    lag = EpochTypedOptimizerState.make(
        w=w_arr, m=np.zeros(dim), v=v, g=g_skipped, rng=7, data_pos=epoch,
        tags=lag_tags)
    return ref, lag


def skew_consistency_check(pair: tuple[EpochTypedOptimizerState, EpochTypedOptimizerState],
                           gradient, hyper: AdamWHyperparams) -> np.ndarray:
    """One Coerce step on each state of the pair; returns the m difference.

    The pair must differ only in the first moment (value and tag); anything
    else differing is a malformed pair, not a moment skew.
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
    stepped_ref = adamw_step(ref, gradient, hyper, StepMode.COERCE)
    stepped_lag = adamw_step(lag, gradient, hyper, StepMode.COERCE)
    return stepped_ref.m - stepped_lag.m


# ---------------------------------------------------------------------------
# Quadratic task and trajectory divergence
# ---------------------------------------------------------------------------


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
        rng = np.random.default_rng([self.seed, step])
        return rng.standard_normal(self.dim)

    def held_out_noise(self) -> np.ndarray:
        if self.noise_scale == 0.0:
            return np.zeros(self.dim)
        rng = np.random.default_rng([self.seed, 0x5EED])
        return rng.standard_normal(self.dim)

    def loss(self, w) -> float:
        sq = np.subtract(np.asarray(w, dtype=np.float64), self.target)
        np.square(sq, out=sq)
        sq *= self.curvature
        return float(0.5 * np.sum(sq))

    def batch_loss(self, w, xi) -> float:
        w = np.asarray(w, dtype=np.float64)
        shifted = self.target + self.noise_scale * np.asarray(xi)
        return float(0.5 * np.sum(self.curvature * (w - shifted) ** 2))

    def gradient(self, w, step: int) -> np.ndarray:
        return self._gradient(w, self.noise(step))

    def _gradient(self, w, xi: np.ndarray) -> np.ndarray:
        """curvature * (w - (target + noise_scale * xi)) in one fresh array.

        xi is only read, so one draw can serve several trajectories.
        """
        out = np.multiply(xi, self.noise_scale)
        np.add(self.target, out, out=out)
        np.subtract(np.asarray(w, dtype=np.float64), out, out=out)
        out *= self.curvature
        return out


def run_trajectory(task: QuadraticTask, hyper: AdamWHyperparams, steps: int, *,
                   w0=None, mode: StepMode = StepMode.STRICT) -> list[EpochTypedOptimizerState]:
    """States s_0..s_steps of a consistent trajectory on the task."""
    state = initial_state(task.dim, w0=w0, rng_seed=task.seed)
    states = [state]
    for k in range(steps):
        grad = task.gradient(state.w, k)
        state = adamw_step(state, grad, hyper, mode)
        states.append(state)
    return states


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

    @property
    def distances(self) -> list[float]:
        return [r.distance for r in self.rows]

    def to_csv(self) -> str:
        lines = ["step,distance,ref_loss,mixed_loss"]
        for r in self.rows:
            lines.append(f"{r.step},{r.distance:.17g},{r.ref_loss:.17g},{r.mixed_loss:.17g}")
        return "\n".join(lines)


def trajectory_divergence(task: QuadraticTask, hyper: AdamWHyperparams,
                          skew_epoch: int, horizon: int, *,
                          w0=None) -> DivergenceSeries:
    """Reference vs skew-loaded trajectory under an identical batch stream.

    At skew_epoch the mixed run reloads the reference state but with the
    first moment from one epoch earlier (the partially persisted
    checkpoint); both runs then continue on the same noise stream, drawn
    once per step. Rows report the per-step weight-space distance and both
    losses.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not (1 <= skew_epoch < horizon):
        raise ValueError("skew epoch must satisfy 1 <= skew_epoch < horizon")
    ref = initial_state(task.dim, w0=w0, rng_seed=task.seed)
    mixed = ref
    rows = []
    for k in range(horizon + 1):
        if k > 0:
            prev_m = ref.m
            xi = task.noise(k - 1)
            ref = adamw_step(ref, task._gradient(ref.w, xi), hyper)
            mixed = ref if k <= skew_epoch else adamw_step(
                mixed, task._gradient(mixed.w, xi), hyper, StepMode.COERCE)
        if k == skew_epoch:
            mixed = EpochTypedOptimizerState.make(
                w=ref.w, m=prev_m, v=ref.v, g=ref.g,
                rng=ref.rng, data_pos=ref.data_pos,
                tags=replace(ref.tags, m=ref.tags.m - 1))
        ref_loss = task.loss(ref.w)
        if mixed is ref:
            rows.append(DivergenceRow(step=k, distance=0.0, ref_loss=ref_loss,
                                      mixed_loss=ref_loss))
        else:
            rows.append(DivergenceRow(
                step=k, distance=float(np.linalg.norm(ref.w - mixed.w)),
                ref_loss=ref_loss, mixed_loss=task.loss(mixed.w)))
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


def default_validation_threshold(task: QuadraticTask, w_ref, *,
                                 batches: int = 64, seed: int = 1234) -> float:
    """Three empirical standard deviations of batch-noise loss at w_ref."""
    if batches < 2:
        raise ValueError("need at least two batches to estimate noise")
    rng = np.random.default_rng(seed)
    losses = [task.batch_loss(w_ref, rng.standard_normal(task.dim))
              for _ in range(batches)]
    spread = float(np.std(losses))
    return max(3.0 * spread, 1e-12)
