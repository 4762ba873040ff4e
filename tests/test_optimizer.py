"""Epoch-tagged AdamW: tag checks, moment skew, trajectory divergence."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import epochsim
from epochsim import optimizer
from epochsim.cli import EXIT_OK, main
from epochsim.optimizer import (
    AdamWHyperparams,
    DivergenceRow,
    EpochTags,
    EpochTypedOptimizerState,
    QuadraticTask,
    StepMode,
    TypeViolationError,
    _adamw_update,
    adamw_step,
    default_validation_threshold,
    initial_state,
    make_skew_pair,
    moment_skew,
    run_trajectory,
    skew_consistency_check,
    trajectory_divergence,
    validation_checkpoint,
)

from oracles import ScalarAdamW


# ---------------------------------------------------------------------------
# update math vs independent scalar recursion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_vector_update_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = 4
    hyper = AdamWHyperparams(lr=0.03, beta1=0.9, beta2=0.999, eps=1e-8,
                             weight_decay=0.01)
    oracle = ScalarAdamW(lr=0.03, beta1=0.9, beta2=0.999, eps=1e-8,
                         weight_decay=0.01)
    state = initial_state(dim, w0=rng.standard_normal(dim))
    shadow = [(float(state.w[i]), 0.0, 0.0) for i in range(dim)]
    for t in range(1, 101):
        g = rng.standard_normal(dim)
        state = adamw_step(state, g, hyper)
        shadow = [oracle.step(w, m, v, float(g[i]), t)
                  for i, (w, m, v) in enumerate(shadow)]
        for i, (w, m, v) in enumerate(shadow):
            assert state.w[i] == pytest.approx(w, abs=1e-12)
            assert state.m[i] == pytest.approx(m, abs=1e-12)
            assert state.v[i] == pytest.approx(v, abs=1e-12)


def test_zero_gradient_zero_moments_is_fixed_point():
    hyper = AdamWHyperparams(weight_decay=0.0)
    state = initial_state(3, w0=[1.0, -2.0, 0.5])
    stepped = adamw_step(state, np.zeros(3), hyper)
    assert np.array_equal(stepped.w, state.w)
    assert stepped.tags.w == 1


def test_step_state_does_not_alias_the_callers_gradient():
    state = initial_state(3)
    grad = np.array([1.0, -2.0, 0.5])
    stepped = adamw_step(state, grad, AdamWHyperparams())
    grad[:] = 99.0
    assert np.array_equal(stepped.g, [1.0, -2.0, 0.5])


@pytest.fixture
def noise_draws(monkeypatch):
    """Every QuadraticTask.noise call while the test runs, as (step, array)."""
    draws = []
    draw = QuadraticTask.noise

    def recording(self, step):
        xi = draw(self, step)
        draws.append((step, xi))
        return xi

    monkeypatch.setattr(QuadraticTask, "noise", recording)
    return draws


@pytest.mark.parametrize("mode", list(StepMode))
def test_step_and_gradient_neither_write_nor_share_their_inputs(noise_draws, mode):
    rng = np.random.default_rng(2)
    task = QuadraticTask.of(rng.uniform(0.5, 4.0, 64), rng.standard_normal(64),
                            noise_scale=0.1, seed=4)
    hyper = AdamWHyperparams(lr=0.03, weight_decay=0.01)
    state = run_trajectory(task, hyper, 3, w0=rng.standard_normal(64))[-1]
    inputs = [state.w, state.m, state.v, state.g, task.curvature, task.target]
    before = [a.copy() for a in inputs]
    noise_draws.clear()
    grad = task.gradient(state.w, task.noise(3))
    [(_, xi)] = noise_draws
    grad_before = grad.copy()
    stepped = adamw_step(state, grad, hyper, mode)
    for a, b in zip(inputs + [xi, grad], before + [task.noise(3), grad_before]):
        assert np.array_equal(a, b)
    outputs = [stepped.w, stepped.m, stepped.v, stepped.g]
    for out in [grad] + outputs:
        assert not any(np.shares_memory(out, a) for a in inputs + [xi])
    for i, out in enumerate(outputs):
        assert not any(np.shares_memory(out, a) for a in [grad] + outputs[i + 1:])


@pytest.mark.parametrize("dim", [1, 3, 257])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_update_in_place_equals_fresh_outputs_bit_for_bit(dim, weight_decay):
    rng = np.random.default_rng(dim)
    hyper = AdamWHyperparams(lr=0.03, weight_decay=weight_decay)
    state = initial_state(dim, w0=rng.standard_normal(dim))
    w, m, v = state.w.copy(), state.m.copy(), state.v.copy()
    update, scratch = np.empty(dim), np.empty(dim)
    for t in range(1, 6):
        grad = rng.standard_normal(dim)
        state = adamw_step(state, grad, hyper)
        _adamw_update(w, m, v, grad, hyper, t, w_out=w, m_out=m, v_out=v,
                      update=update, scratch=scratch)
        for in_place, fresh in zip([w, m, v], [state.w, state.m, state.v]):
            assert in_place.tobytes() == fresh.tobytes()


def test_weight_decay_pulls_toward_zero():
    hyper = AdamWHyperparams(lr=0.1, weight_decay=0.5)
    state = initial_state(1, w0=[2.0])
    stepped = adamw_step(state, np.zeros(1), hyper)
    assert stepped.w[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


# ---------------------------------------------------------------------------
# tag discipline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0},
    {"eps": float("nan")}, {"eps": float("inf")},
    {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
    {"beta1": float("nan")}, {"beta2": float("nan")},
])
def test_hyperparams_reject_nonfinite_and_out_of_range(kwargs):
    with pytest.raises(ValueError):
        AdamWHyperparams(**kwargs)


@pytest.mark.parametrize("curvature,target,noise", [
    ([], [], 0.0),
    ([1.0], [0.0], float("nan")),
    ([1.0], [0.0], float("inf")),
    ([1.0], [0.0], -0.1),
    ([float("nan")], [0.0], 0.0),
    ([float("inf")], [0.0], 0.0),
    ([1.0], [float("nan")], 0.0),
])
def test_task_rejects_empty_nonfinite_and_negative_inputs(curvature, target, noise):
    with pytest.raises(ValueError):
        QuadraticTask.of(curvature, target, noise_scale=noise)


def test_task_rejects_scalar_inputs():
    with pytest.raises(ValueError, match=r"^curvature and target must be 1-D, "
                                         r"got shapes \(\) and \(\)$"):
        QuadraticTask.of(2.0, 1.0)


def test_task_rejects_2d_inputs():
    with pytest.raises(ValueError, match=r"^curvature and target must be 1-D, "
                                         r"got shapes \(2, 2\) and \(2, 2\)$"):
        QuadraticTask.of([[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]])


def test_skew_pair_rejects_a_scalar_gradient():
    with pytest.raises(ValueError, match=r"^skipped gradient must be 1-D, got shape \(\)$"):
        make_skew_pair(1.0, AdamWHyperparams())


def test_state_rejects_scalar_arrays():
    scalar = np.array(1.0)
    with pytest.raises(ValueError, match=r"^state arrays must be 1-D, got shape \(\)$"):
        EpochTypedOptimizerState(w=scalar, m=scalar, v=scalar, g=scalar, rng=7, data_pos=1,
                                 tags=EpochTags.uniform(1))


def test_state_rejects_2d_arrays():
    square = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match=r"^state arrays must be 1-D, got shape \(2, 2\)$"):
        EpochTypedOptimizerState(w=square, m=square, v=square, g=square, rng=7, data_pos=1,
                                 tags=EpochTags.uniform(1))


def test_task_rejects_negative_seed():
    # Refused with or without noise, before numpy ever sees the seed.
    for noise in (0.0, 0.1):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            QuadraticTask.of([1.0], [0.0], noise_scale=noise, seed=-1)


def test_strict_step_advances_all_tags_uniformly():
    state = initial_state(2)
    stepped = adamw_step(state, np.ones(2), AdamWHyperparams())
    assert stepped.tags == EpochTags.uniform(1)
    assert stepped.data_pos == state.data_pos + 1
    assert stepped.rng != state.rng


def test_strict_rejects_mismatched_tags():
    state = initial_state(2)
    skewed = replace(state, tags=EpochTags(w=3, m=2, v=3, g=3, rng=3, d=3))
    with pytest.raises(TypeViolationError) as exc:
        adamw_step(skewed, np.ones(2), AdamWHyperparams())
    assert "m" in str(exc.value)
    assert exc.value.mismatches == {"m": 2}
    assert exc.value.expected == 3


def test_coerce_accepts_mismatch_and_advances():
    state = initial_state(2)
    skewed = replace(state, tags=EpochTags(w=3, m=2, v=3, g=3, rng=3, d=3))
    stepped = adamw_step(skewed, np.ones(2), AdamWHyperparams(),
                         mode=StepMode.COERCE)
    assert stepped.tags.w == 4
    assert stepped.tags.m == 3  # advanced by one, still lagging


def test_consistency_flag():
    assert EpochTags.uniform(5).consistent
    assert not EpochTags(w=5, m=4, v=5, g=5, rng=5, d=5).consistent


# ---------------------------------------------------------------------------
# moment skew closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta1", [0.5, 0.9, 0.99])
def test_skew_pair_scalar(beta1):
    hyper = AdamWHyperparams(beta1=beta1)
    g = np.array([1.0])
    pair = make_skew_pair(g, hyper)
    observed = skew_consistency_check(pair, g, hyper)
    expected = moment_skew(g, beta1)
    assert np.max(np.abs(observed - expected)) <= 1e-12
    assert expected[0] == pytest.approx(beta1 * (1 - beta1), abs=1e-15)


@pytest.mark.parametrize("beta1", [0.5, 0.9, 0.99])
def test_skew_pair_vector(beta1):
    rng = np.random.default_rng(41)
    g = rng.standard_normal(8)
    hyper = AdamWHyperparams(beta1=beta1)
    pair = make_skew_pair(g, hyper, epoch=5)
    observed = skew_consistency_check(pair, g, hyper)
    assert np.max(np.abs(observed - moment_skew(g, beta1))) <= 1e-12


def test_skew_magnitude_at_point_nine():
    assert moment_skew(np.array([1.0]), 0.9)[0] == pytest.approx(0.09,
                                                                 abs=1e-12)


def test_skew_pair_shape():
    pair = make_skew_pair(np.ones(3), AdamWHyperparams(), epoch=2)
    ref, lag = pair
    assert ref.tags.m == 2
    assert lag.tags.m == 1
    assert np.array_equal(ref.w, lag.w)
    assert np.array_equal(ref.v, lag.v)
    assert not np.array_equal(ref.m, lag.m)


def test_skew_check_rejects_nonskew_pairs():
    hyper = AdamWHyperparams()
    ref, lag = make_skew_pair(np.ones(2), hyper)
    tampered = replace(lag, w=lag.w + 1.0)
    with pytest.raises(ValueError):
        skew_consistency_check((ref, tampered), np.ones(2), hyper)


# ---------------------------------------------------------------------------
# quadratic task
# ---------------------------------------------------------------------------


def test_task_gradient_matches_finite_difference():
    task = QuadraticTask.of([2.0, 0.5], [1.0, -1.0], noise_scale=0.0)
    w = np.array([0.3, 0.7])
    g = task.gradient(w, task.noise(0))
    h = 1e-6
    for i in range(2):
        bump = w.copy()
        bump[i] += h
        fd = (task.loss(bump) - task.loss(w)) / h
        assert g[i] == pytest.approx(fd, abs=1e-4)


def test_task_arrays_are_read_only_copies():
    curvature = np.array([2.0, 0.5])
    task = QuadraticTask.of(curvature, [1.0, -1.0])
    assert isinstance(task.curvature, np.ndarray)
    assert task.curvature.dtype == np.float64 and task.target.dtype == np.float64
    with pytest.raises(ValueError):
        task.curvature[0] = 1.0
    with pytest.raises(ValueError):
        task.target[0] = 1.0
    curvature[0] = 9.0
    assert task.curvature[0] == 2.0


def test_task_noise_deterministic_per_step():
    task = QuadraticTask.of([1.0], [0.0], noise_scale=0.5, seed=7)
    assert np.array_equal(task.noise(3), task.noise(3))
    assert not np.array_equal(task.noise(3), task.noise(4))


def test_run_trajectory_converges_without_noise():
    task = QuadraticTask.of([2.0, 2.0], [1.0, -1.0])
    hyper = AdamWHyperparams(lr=0.05)
    states = run_trajectory(task, hyper, 400, w0=[0.0, 0.0])
    assert len(states) == 401
    assert task.loss(states[-1].w) < 1e-3


# ---------------------------------------------------------------------------
# divergence series
# ---------------------------------------------------------------------------


def test_divergence_zero_before_skew():
    task = QuadraticTask.of([2.0], [0.0], noise_scale=0.1, seed=11)
    series = trajectory_divergence(task, AdamWHyperparams(), skew_epoch=5,
                                   horizon=20, w0=[1.0])
    for row in series.rows[:6]:
        assert row.distance == 0.0
    assert series.rows[-1].distance > 0.0


def test_divergence_all_zero_when_no_gradient_was_skipped():
    # start at the optimum with no noise: every gradient is zero, the lagged
    # moment equals the live one, and the trajectories never separate
    task = QuadraticTask.of([2.0], [1.0], noise_scale=0.0)
    series = trajectory_divergence(task, AdamWHyperparams(), skew_epoch=5,
                                   horizon=20, w0=[1.0])
    assert all(r.distance == 0.0 for r in series.rows)
    assert series.rows[0].ref_loss == 0.0


def test_divergence_first_step_closed_form():
    hyper = AdamWHyperparams(beta1=0.9)
    task = QuadraticTask.of([2.0, 1.0], [0.0, 0.5], noise_scale=0.1, seed=3)
    k = 3
    series = trajectory_divergence(task, hyper, skew_epoch=k, horizon=50,
                                   w0=[1.0, 1.0])
    ref = run_trajectory(task, hyper, k, w0=[1.0, 1.0])
    s_k, s_prev = ref[k], ref[k - 1]
    g = task.gradient(s_k.w, task.noise(k))
    t = s_k.tags.w + 1
    m_ref = hyper.beta1 * s_k.m + (1 - hyper.beta1) * g
    m_lag = hyper.beta1 * s_prev.m + (1 - hyper.beta1) * g
    v_new = hyper.beta2 * s_k.v + (1 - hyper.beta2) * g * g
    v_hat = v_new / (1 - hyper.beta2 ** t)
    dw = hyper.lr * (m_ref - m_lag) / (1 - hyper.beta1 ** t) \
        / (np.sqrt(v_hat) + hyper.eps)
    want = _l2(dw)
    assert series.rows[k + 1].distance == pytest.approx(want, abs=1e-10)


def _l2(x) -> float:
    """The distance's reduction: squares summed pairwise by numpy, not by BLAS."""
    return math.sqrt(float(np.sum(np.square(x))))


def _two_run_divergence(task, hyper, skew_epoch, horizon, w0):
    """Both trajectories materialised in full, then compared step by step."""
    ref = run_trajectory(task, hyper, horizon, w0=w0)
    base = ref[skew_epoch]
    state = EpochTypedOptimizerState(
        w=base.w, m=ref[skew_epoch - 1].m, v=base.v, g=base.g,
        rng=base.rng, data_pos=base.data_pos,
        tags=replace(base.tags, m=base.tags.m - 1))
    mixed = ref[:skew_epoch] + [state]
    for k in range(skew_epoch, horizon):
        state = adamw_step(state, task.gradient(state.w, task.noise(k)), hyper, StepMode.COERCE)
        mixed.append(state)
    return [DivergenceRow(step=k, distance=_l2(r.w - x.w),
                          ref_loss=task.loss(r.w), mixed_loss=task.loss(x.w))
            for k, (r, x) in enumerate(zip(ref, mixed))]


def _noisy_task(dim):
    """A noisy task and a start point: the fixed 3-dim one, or a random one."""
    if dim == 3:
        return (QuadraticTask.of([2.0, 0.7, 3.5], [0.5, -1.0, 0.25],
                                 noise_scale=0.1, seed=13), [1.0, -0.5, 2.0])
    rng = np.random.default_rng(dim)
    return (QuadraticTask.of(rng.uniform(0.5, 4.0, dim), rng.standard_normal(dim),
                             noise_scale=0.1, seed=13), rng.standard_normal(dim))


# The dim-3 cases without weight decay are named by their skew epoch alone.
# At 16,384 the series reads noise drawn ahead on a helper thread, and the
# reference reads task.noise.
@pytest.mark.parametrize("dim,weight_decay,skew_epoch", [
    pytest.param(dim, wd, k, id=str(k) if (dim, wd) == (3, 0.0) else f"{dim}-{wd}-{k}")
    for dim in (3, 257, 16_384)
    for wd in (0.0, 0.01) for k in (1, 4, 11)])
def test_divergence_matches_two_run_reference(draw_ahead_from_16384, dim, weight_decay,
                                              skew_epoch):
    task, w0 = _noisy_task(dim)
    hyper = AdamWHyperparams(lr=0.05, weight_decay=weight_decay)
    series = trajectory_divergence(task, hyper, skew_epoch=skew_epoch,
                                   horizon=12, w0=w0)
    assert list(series.rows) == _two_run_divergence(task, hyper, skew_epoch, 12, w0)


def test_divergence_writes_no_input_and_no_noise_draw(noise_draws):
    task, w0 = _noisy_task(257)
    before = [w0.copy(), task.curvature.copy(), task.target.copy()]
    trajectory_divergence(task, AdamWHyperparams(lr=0.05, weight_decay=0.01),
                          skew_epoch=4, horizon=12, w0=w0)
    for a, b in zip([w0, task.curvature, task.target], before):
        assert np.array_equal(a, b)
    draws = list(noise_draws)
    assert [step for step, _ in draws] == list(range(12))
    for step, xi in draws:
        assert np.array_equal(xi, task.noise(step))


# Runs in a fresh interpreter, where no other test has imported the executor
# or started a thread. Prints, for a noisy call one dimension below the
# threshold and one at it, whether concurrent.futures is imported and the
# names of the threads started so far.
_THREADS_BY_DIM = """
import json, sys, threading
started = []
start = threading.Thread.start
def recording(self):
    started.append(self.name)
    start(self)
threading.Thread.start = recording
import numpy as np
import epochsim
from epochsim import optimizer
def run(dim):
    rng = np.random.default_rng(0)
    task = epochsim.QuadraticTask.of(rng.uniform(0.5, 4.0, dim), rng.standard_normal(dim),
                                     noise_scale=0.1, seed=1)
    epochsim.trajectory_divergence(task, epochsim.AdamWHyperparams(), skew_epoch=1,
                                   horizon=3)
    return ["concurrent.futures" in sys.modules, list(started)]
at = optimizer._DRAW_AHEAD_MIN_DIM
print(json.dumps([run(at - 1), run(at)]))
"""


def test_divergence_below_the_threshold_imports_no_executor_and_starts_no_thread():
    src = str(Path(epochsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _THREADS_BY_DIM], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
                          check=True)
    below, at = json.loads(done.stdout)
    assert below == [False, []]
    assert at == [True, ["epochsim-noise_0"]]


def test_divergence_draws_ahead_under_contention(draw_ahead_from_16384):
    # Four callers on a short switch interval, each with its own helper: a
    # buffer refilled before its step had read it would change the rows.
    task, w0 = _noisy_task(16_384)
    hyper = AdamWHyperparams(lr=0.05)
    want = _two_run_divergence(task, hyper, 4, 12, w0)
    results = []

    def call():
        for _ in range(5):
            series = trajectory_divergence(task, hyper, skew_epoch=4, horizon=12, w0=w0)
            results.append(list(series.rows) == want)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [True] * 20


def test_divergence_keeps_each_draw_while_the_next_one_lands(draw_ahead_from_16384,
                                                             monkeypatch):
    # Each step's reference gradient waits until the next draw has landed,
    # so a draw made into the row being read changes the rows every time,
    # not only when the helper happens to win the race.
    task, w0 = _noisy_task(16_384)
    hyper = AdamWHyperparams(lr=0.05)
    want = _two_run_divergence(task, hyper, 11, 12, w0)
    draw, gradient = optimizer._standard_normal, QuadraticTask.gradient
    landed = [threading.Event() for _ in range(12)]
    calls = []

    def signalling(seed, step, out):
        draw(seed, step, out)
        landed[step].set()
        return out

    def waiting(self, w, xi):
        # Before the skew epoch (11) call c is the reference's, on draw c - 1.
        calls.append(w)
        if len(calls) < 12:
            assert landed[len(calls)].wait(timeout=30)
        return gradient(self, w, xi)

    monkeypatch.setattr(optimizer, "_standard_normal", signalling)
    monkeypatch.setattr(QuadraticTask, "gradient", waiting)
    series = trajectory_divergence(task, hyper, skew_epoch=11, horizon=12, w0=w0)
    assert list(series.rows) == want


def test_divergence_reraises_a_failed_draw_and_joins_the_helper(draw_ahead_from_16384,
                                                                monkeypatch):
    draw = optimizer._standard_normal
    drawn = []

    def failing_at_step_2(seed, step, out):
        drawn.append((step, threading.current_thread()))
        if step == 2:
            raise RuntimeError("draw 2 failed")
        return draw(seed, step, out)

    monkeypatch.setattr(optimizer, "_standard_normal", failing_at_step_2)
    task, w0 = _noisy_task(16_384)
    raised = []

    def call():
        try:
            trajectory_divergence(task, AdamWHyperparams(lr=0.05), skew_epoch=4,
                                  horizon=12, w0=w0)
        except RuntimeError as exc:
            raised.append(exc)

    threads = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert threading.active_count() == threads
    assert [str(exc) for exc in raised] == ["draw 2 failed"]
    # The series stops at the failed draw, which ran on the helper thread.
    assert [step for step, _ in drawn] == [0, 1, 2]
    assert all(t not in (caller, threading.current_thread()) for _, t in drawn)


def test_divergence_joins_the_draw_in_flight_when_the_caller_raises(draw_ahead_from_16384,
                                                                    monkeypatch):
    draw, loss = optimizer._standard_normal, QuadraticTask.loss
    drawn, losses = [], []

    def recording(seed, step, out):
        drawn.append((step, threading.current_thread()))
        return draw(seed, step, out)

    def failing_at_step_5(self, w):
        # Before the skew epoch (8) the call takes one loss per step, the
        # reference's; step 5's comes while draw 5 is in flight.
        losses.append(w)
        if len(losses) == 6:
            raise RuntimeError("loss at step 5 failed")
        return loss(self, w)

    monkeypatch.setattr(optimizer, "_standard_normal", recording)
    monkeypatch.setattr(QuadraticTask, "loss", failing_at_step_5)
    task, w0 = _noisy_task(16_384)
    raised = []

    def call():
        try:
            trajectory_divergence(task, AdamWHyperparams(lr=0.05), skew_epoch=8,
                                  horizon=12, w0=w0)
        except RuntimeError as exc:
            raised.append(exc)

    threads = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert threading.active_count() == threads
    assert [str(exc) for exc in raised] == ["loss at step 5 failed"]
    # The draw in flight finished and was joined, and none started after it.
    assert [step for step, _ in drawn] == [0, 1, 2, 3, 4, 5]
    assert all(t not in (caller, threading.current_thread()) for _, t in drawn)


@pytest.mark.parametrize("w0", [[1.0, -0.5], [[1.0, -0.5, 2.0]]],
                         ids=["wrong-length", "2-D"])
def test_divergence_refuses_a_misshapen_w0(w0):
    task, _ = _noisy_task(3)
    with pytest.raises(ValueError, match="^state arrays must share one shape$"):
        trajectory_divergence(task, AdamWHyperparams(), skew_epoch=1, horizon=3, w0=w0)


def _read_only(w):
    w = w.copy()
    w.flags.writeable = False
    return w


# Each form of w0 the call takes, from a float64 start point: the form
# passed and the float64 array whose series it must give.
_W0_FORMS = {
    "list": lambda w: (w.tolist(), w),
    "tuple": lambda w: (tuple(w.tolist()), w),
    "int-list": lambda w: (np.rint(w).astype(int).tolist(), np.rint(w)),
    "read-only": lambda w: (_read_only(w), w),
    "float32": lambda w: (w.astype(np.float32), w.astype(np.float32).astype(np.float64)),
}


@pytest.mark.parametrize("form", list(_W0_FORMS))
@pytest.mark.parametrize("dim", [3, 16_384], ids=["inline", "draw-ahead"])
def test_divergence_takes_each_w0_form_as_float64(draw_ahead_from_16384, dim, form):
    task, w0 = _noisy_task(dim)
    given, want = _W0_FORMS[form](np.array(w0, dtype=np.float64))
    hyper = AdamWHyperparams(lr=0.05)
    series = trajectory_divergence(task, hyper, skew_epoch=4, horizon=12, w0=given)
    assert series == trajectory_divergence(task, hyper, skew_epoch=4, horizon=12,
                                           w0=want)


@pytest.mark.parametrize("horizon,skew_epoch", [(10, 3), (12, 1), (12, 11)])
def test_divergence_draws_each_steps_noise_once(noise_draws, horizon, skew_epoch):
    # both trajectories read one draw per step
    task = QuadraticTask.of([2.0, 0.7], [0.5, -1.0], noise_scale=0.1, seed=13)
    trajectory_divergence(task, AdamWHyperparams(), skew_epoch=skew_epoch,
                          horizon=horizon, w0=[1.0, -0.5])
    assert [step for step, _ in noise_draws] == list(range(horizon))


def test_divergence_requires_interior_skew():
    task = QuadraticTask.of([1.0], [0.0])
    with pytest.raises(ValueError):
        trajectory_divergence(task, AdamWHyperparams(), skew_epoch=0,
                              horizon=10)
    with pytest.raises(ValueError):
        trajectory_divergence(task, AdamWHyperparams(), skew_epoch=10,
                              horizon=10)


def test_divergence_csv_round_trips():
    # adamw-skew writes the series with .17g, which round-trips every float64.
    buf = io.StringIO()
    code = main(["adamw-skew", "--noise", "0.1", "--seed", "1", "--skew-epoch", "2",
                 "--horizon", "5", "--format", "csv"], stdout=buf)
    assert code == EXIT_OK
    task = QuadraticTask.of([2.0], [0.0], noise_scale=0.1, seed=1)
    series = trajectory_divergence(task, AdamWHyperparams(lr=0.05), skew_epoch=2,
                                   horizon=5, w0=[1.0])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,distance,ref_loss,mixed_loss"
    assert [[float(cell) for cell in line.split(",")] for line in lines[1:]] == \
        [[r.step, r.distance, r.ref_loss, r.mixed_loss] for r in series.rows]


def test_divergence_deterministic():
    task = QuadraticTask.of([2.0], [0.0], noise_scale=0.1, seed=9)
    a = trajectory_divergence(task, AdamWHyperparams(), skew_epoch=3,
                              horizon=30, w0=[1.0])
    b = trajectory_divergence(task, AdamWHyperparams(), skew_epoch=3,
                              horizon=30, w0=[1.0])
    assert a == b


# ---------------------------------------------------------------------------
# validation gate
# ---------------------------------------------------------------------------


def _trained_state(task, hyper, steps=30):
    return run_trajectory(task, hyper, steps, w0=[1.0, 1.0])[-1]


def test_validation_accepts_faithful_reload():
    task = QuadraticTask.of([2.0, 1.0], [0.0, 0.5], noise_scale=0.05, seed=2)
    hyper = AdamWHyperparams(lr=0.05)
    state = _trained_state(task, hyper)
    ref_loss = task.batch_loss(state.w, task.held_out_noise())
    res = validation_checkpoint(state, task, ref_loss, delta=1e-9)
    assert res.accepted
    assert res.observed_loss == pytest.approx(ref_loss, abs=1e-12)


def test_validation_rejects_corrupted_weights():
    task = QuadraticTask.of([2.0, 1.0], [0.0, 0.5], noise_scale=0.05, seed=2)
    hyper = AdamWHyperparams(lr=0.05)
    state = _trained_state(task, hyper)
    ref_loss = task.batch_loss(state.w, task.held_out_noise())
    corrupted = replace(state, w=state.w + 10.0)
    res = validation_checkpoint(corrupted, task, ref_loss, delta=1e-6)
    assert not res.accepted


def test_validation_is_blind_to_moment_skew():
    # the gate only sees weights, so a lagging m sails through: this is
    # exactly the hole the tag check closes
    task = QuadraticTask.of([2.0, 1.0], [0.0, 0.5], noise_scale=0.05, seed=2)
    hyper = AdamWHyperparams(lr=0.05)
    state = _trained_state(task, hyper)
    ref_loss = task.batch_loss(state.w, task.held_out_noise())
    skewed = replace(state, m=state.m * 0.0,
                     tags=replace(state.tags, m=state.tags.m - 1))
    res = validation_checkpoint(skewed, task, ref_loss, delta=1e-9)
    assert res.accepted
    assert not skewed.tags.consistent


def test_validation_requires_positive_delta():
    task = QuadraticTask.of([1.0], [0.0])
    state = initial_state(1)
    with pytest.raises(ValueError):
        validation_checkpoint(state, task, 0.0, delta=0.0)


def test_default_threshold_scales_with_noise():
    quiet = QuadraticTask.of([2.0, 1.0], [0.0, 0.0], noise_scale=0.01, seed=5)
    loud = QuadraticTask.of([2.0, 1.0], [0.0, 0.0], noise_scale=1.0, seed=5)
    w = np.array([0.5, 0.5])
    assert default_validation_threshold(loud, w) \
        > default_validation_threshold(quiet, w)
    assert default_validation_threshold(quiet, w) >= 1e-12
