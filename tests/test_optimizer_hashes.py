"""Optimizer outputs pinned as literal digests of their raw bytes.

The optimizer's float arithmetic is part of the behaviour contract: the
golden files print a handful of its numbers at 6 to 17 significant digits,
and these pins cover every bit of the arrays behind them. Each digest is
blake2b over the `tobytes()` of the arrays in the order listed, so a
rewrite that reorders one multiplication, fuses two operations or drops
a rounding step fails here even when the printed numbers survive. A change
that alters the arithmetic on purpose updates these literals and says why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from epochsim.optimizer import (
    AdamWHyperparams,
    QuadraticTask,
    StepMode,
    adamw_step,
    make_skew_pair,
    run_trajectory,
    skew_consistency_check,
    trajectory_divergence,
)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.asarray(a).tobytes())
    return h.hexdigest()


def _state_arrays(state) -> list:
    tags = list(state.tags.as_dict().values())
    return [state.w, state.m, state.v, state.g,
            np.array([state.rng, state.data_pos, *tags], dtype=np.uint64)]


def _rows(series) -> np.ndarray:
    return np.array([[r.step, r.distance, r.ref_loss, r.mixed_loss]
                     for r in series.rows], dtype=np.float64)


def _random_task(dim: int, noise: float, seed: int) -> tuple[QuadraticTask, np.ndarray]:
    rng = np.random.default_rng(seed)
    task = QuadraticTask.of(rng.uniform(0.5, 4.0, dim), rng.standard_normal(dim),
                            noise_scale=noise, seed=seed)
    return task, rng.standard_normal(dim)


def test_divergence_rows_dim1_noiseless():
    # adamw-skew's default configuration
    task = QuadraticTask.of([2.0], [0.0])
    series = trajectory_divergence(task, AdamWHyperparams(lr=0.05), skew_epoch=3,
                                   horizon=50, w0=[1.0])
    assert _digest(_rows(series)) == "4b53216ab520d508a069a284ba1bf7e2"


def test_divergence_rows_dim1000_noisy():
    task, w0 = _random_task(1000, 0.1, seed=11)
    series = trajectory_divergence(task, AdamWHyperparams(lr=0.05), skew_epoch=4,
                                   horizon=15, w0=w0)
    assert _digest(_rows(series)) == "a076adb404d052e44f269268ea06510b"


@pytest.mark.parametrize("weight_decay,mode,expected", [
    (0.0, StepMode.STRICT, "e22ee7ba2b0d5b93f2f7f803b7bcd024"),
    (0.01, StepMode.STRICT, "6d69ef7b1f93be87c9f7a7f36642af5e"),
    (0.0, StepMode.COERCE, "687db0cdc8905e07ae380ad251c9d8f0"),
    (0.01, StepMode.COERCE, "d61081beb9216237775f65a9b980bd98"),
], ids=["wd0-strict", "wd0.01-strict", "wd0-coerce", "wd0.01-coerce"])
def test_adamw_step_chain(weight_decay, mode, expected):
    # Strict steps the consistent reference; Coerce steps its m-lagging twin.
    rng = np.random.default_rng(5)
    hyper = AdamWHyperparams(lr=0.03, weight_decay=weight_decay)
    ref, lag = make_skew_pair(rng.standard_normal(257), hyper, epoch=2,
                              w=rng.standard_normal(257))
    state = ref if mode is StepMode.STRICT else lag
    arrays = _state_arrays(state)
    for _ in range(20):
        state = adamw_step(state, rng.standard_normal(257), hyper, mode)
        arrays += _state_arrays(state)
    assert _digest(*arrays) == expected


def test_run_trajectory_final_state():
    task, w0 = _random_task(1000, 0.1, seed=3)
    states = run_trajectory(task, AdamWHyperparams(lr=0.02, weight_decay=0.01), 25,
                            w0=w0)
    assert len(states) == 26
    assert _digest(*_state_arrays(states[-1])) == "c8c5b4c12e4ba73aa7a389cae6d97dc8"


def test_skew_consistency_check_output():
    g = np.random.default_rng(9).standard_normal(1000)
    hyper = AdamWHyperparams(lr=0.05)
    observed = skew_consistency_check(make_skew_pair(g, hyper, epoch=3), g, hyper)
    assert _digest(observed) == "03385296e92026e0d336dcd1e713cb61"
