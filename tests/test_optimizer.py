"""Epoch-tagged AdamW: tag checks, moment skew, trajectory divergence."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from epochsim.optimizer import (
    AdamWHyperparams,
    DivergenceRow,
    EpochTags,
    EpochTypedOptimizerState,
    QuadraticTask,
    StepMode,
    TypeViolationError,
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
    grad = task.gradient(state.w, 3)
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
    g = task.gradient(w, step=0)
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
    assert all(d == 0.0 for d in series.distances)
    assert series.rows[0].ref_loss == 0.0


def test_divergence_first_step_closed_form():
    hyper = AdamWHyperparams(beta1=0.9)
    task = QuadraticTask.of([2.0, 1.0], [0.0, 0.5], noise_scale=0.1, seed=3)
    k = 3
    series = trajectory_divergence(task, hyper, skew_epoch=k, horizon=50,
                                   w0=[1.0, 1.0])
    ref = run_trajectory(task, hyper, k, w0=[1.0, 1.0])
    s_k, s_prev = ref[k], ref[k - 1]
    g = task.gradient(s_k.w, k)
    t = s_k.tags.w + 1
    m_ref = hyper.beta1 * s_k.m + (1 - hyper.beta1) * g
    m_lag = hyper.beta1 * s_prev.m + (1 - hyper.beta1) * g
    v_new = hyper.beta2 * s_k.v + (1 - hyper.beta2) * g * g
    v_hat = v_new / (1 - hyper.beta2 ** t)
    dw = hyper.lr * (m_ref - m_lag) / (1 - hyper.beta1 ** t) \
        / (np.sqrt(v_hat) + hyper.eps)
    want = float(np.linalg.norm(dw))
    assert series.rows[k + 1].distance == pytest.approx(want, abs=1e-10)


def _two_run_divergence(task, hyper, skew_epoch, horizon, w0):
    """Both trajectories materialised in full, then compared step by step."""
    ref = run_trajectory(task, hyper, horizon, w0=w0)
    base = ref[skew_epoch]
    state = EpochTypedOptimizerState.make(
        w=base.w, m=ref[skew_epoch - 1].m, v=base.v, g=base.g,
        rng=base.rng, data_pos=base.data_pos,
        tags=replace(base.tags, m=base.tags.m - 1))
    mixed = ref[:skew_epoch] + [state]
    for k in range(skew_epoch, horizon):
        state = adamw_step(state, task.gradient(state.w, k), hyper, StepMode.COERCE)
        mixed.append(state)
    return [DivergenceRow(step=k, distance=float(np.linalg.norm(r.w - x.w)),
                          ref_loss=task.loss(r.w), mixed_loss=task.loss(x.w))
            for k, (r, x) in enumerate(zip(ref, mixed))]


@pytest.mark.parametrize("skew_epoch", [1, 4, 11])
def test_divergence_matches_two_run_reference(skew_epoch):
    task = QuadraticTask.of([2.0, 0.7, 3.5], [0.5, -1.0, 0.25],
                            noise_scale=0.1, seed=13)
    hyper = AdamWHyperparams(lr=0.05)
    w0 = [1.0, -0.5, 2.0]
    series = trajectory_divergence(task, hyper, skew_epoch=skew_epoch,
                                   horizon=12, w0=w0)
    assert list(series.rows) == _two_run_divergence(task, hyper, skew_epoch, 12, w0)


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
    task = QuadraticTask.of([2.0], [0.0], noise_scale=0.1, seed=1)
    series = trajectory_divergence(task, AdamWHyperparams(), skew_epoch=2,
                                   horizon=5, w0=[1.0])
    lines = series.to_csv().splitlines()
    assert lines[0] == "step,distance,ref_loss,mixed_loss"
    assert len(lines) == 7
    got = float(lines[-1].split(",")[1])
    assert got == pytest.approx(series.rows[-1].distance, rel=1e-15)


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
    assert not skewed.consistent


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
