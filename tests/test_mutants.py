"""Each acceptance criterion fails on a named mutant of the code it checks.

A criterion that still passes when its mechanism is broken protects
nothing. Each row of MUTANTS names a criterion of test_acceptance.py, the
mutant, and the one function it replaces in process; the criterion must
then fail with an AssertionError. Criteria without a row have no mutant
yet.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import epochsim
import test_acceptance as acceptance
from epochsim import optimizer
from epochsim.optimizer import DivergenceRow, DivergenceSeries, StepMode

_update = optimizer._adamw_update


def _beta1_swapped(w, m, v, grad, hyper, t, **out):
    """_adamw_update with beta1 and 1 - beta1 trading places."""
    _update(w, m, v, grad, replace(hyper, beta1=1.0 - hyper.beta1), t, **out)


def _bias_correction_a_step_late(w, m, v, grad, hyper, t, **out):
    """_adamw_update correcting bias with step count t + 1."""
    _update(w, m, v, grad, hyper, t + 1, **out)


def _divergence_with_v_lagging(task, hyper, skew_epoch, horizon, *, w0=None):
    """trajectory_divergence reloading v, not m, from one epoch earlier."""
    ref = optimizer.run_trajectory(task, hyper, horizon, w0=w0)
    mixed = replace(ref[skew_epoch], v=ref[skew_epoch - 1].v)
    rows = []
    for k, state in enumerate(ref):
        if k > skew_epoch:
            mixed = optimizer.adamw_step(
                mixed, task.gradient(mixed.w, task.noise(k - 1)), hyper, StepMode.COERCE)
        other = mixed if k >= skew_epoch else state
        rows.append(DivergenceRow(step=k, distance=float(np.linalg.norm(state.w - other.w)),
                                  ref_loss=task.loss(state.w),
                                  mixed_loss=task.loss(other.w)))
    return DivergenceSeries(skew_epoch=skew_epoch, horizon=horizon, rows=tuple(rows))


MUTANTS = [
    (acceptance.test_criterion_5_moment_skew, "beta1-swapped",
     optimizer, "_adamw_update", _beta1_swapped),
    (acceptance.test_criterion_6_trajectory_divergence, "skew-on-v",
     epochsim, "trajectory_divergence", _divergence_with_v_lagging),
    (acceptance.test_criterion_7_oracle_equivalence, "bias-correction-off-by-one",
     optimizer, "_adamw_update", _bias_correction_a_step_late),
]


@pytest.mark.parametrize("criterion,owner,name,mutant", [
    pytest.param(criterion, owner, name, mutant,
                 id=f"criterion-{criterion.__name__.split('_')[2]}-{mutant_id}")
    for criterion, mutant_id, owner, name, mutant in MUTANTS])
def test_criterion_kills_its_mutant(monkeypatch, criterion, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(AssertionError):
        criterion()
