"""Each acceptance criterion fails on a named mutant of the code it checks.

A criterion that still passes when its mechanism is broken protects
nothing. Each row of MUTANTS names a criterion of test_acceptance.py, the
mutant, and the one function it replaces in process; the criterion must
then fail with an AssertionError, or, for a mutant in REFUSED, with the
error by which the protocol refuses the mutant's step mid-run.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

import epochsim
import test_acceptance as acceptance
from epochsim import adversary, deploy, kernel, lattice, optimizer, protocols
from epochsim.optimizer import DivergenceRow, DivergenceSeries, StepMode
from epochsim.persistence import PersistenceProcess, ProtocolViolation

_update = optimizer._adamw_update
_monte_carlo = lattice.monte_carlo_atomicity
_coordinate = protocols.BilateralCoordinator.on_event
_fill = kernel._UniformStream.fill
_delay_policy = adversary.StraddlingSchedule.delay_policy


def _linearised_reliability(params):
    """pr_atomic_binary as 1 - n(1 - q), the first-order reliability."""
    return 1.0 - params.n * (1.0 - params.q)


def _bottom_all_term_dropped(params):
    """pr_atomic_binary as q^n, without the BottomAll share (1 - q)^n."""
    return params.q ** params.n


def _monte_carlo_shifted(params, trials, seed):
    """monte_carlo_atomicity sampling each component at q - 1e-5."""
    return _monte_carlo(replace(params, q=params.q - 1e-5), trials, seed)


def _straddle_of_the_next_component(self):
    """StraddlingSchedule.delay_policy retiming the component after the
    target, so the crash at t_c lands on a component that has finished."""
    return _delay_policy(replace(self, target=(self.target + 1) % self.n))


def _commit_on_majority(self, sim, event):
    """BilateralCoordinator.on_event committing once most participants acked."""
    _coordinate(self, sim, event)
    if self.log.decision is None and 2 * len(self.acks) > len(self.participant_names):
        self._decide(sim, "commit")


def _recovery_ignoring_the_log(self, sim, event):
    """PersistenceProcess.on_recover that never re-reads the decision log."""


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


def _unamplified_failure_prob(self, attempt):
    """RetryModel.failure_prob ignoring amplification: p0 on every attempt."""
    return self.base_failure_prob


def _run_collective_unfenced(self, sim, event):
    """_CollectiveRunner.on_event without the fence: a crashed participant
    takes part with the firmware it holds, without reading the register."""
    payload = event.payload
    if payload.get("type") != "collective":
        return
    _, decision = self.register.read(sim.now) if self.register is not None else (True, None)
    versions = {}
    for name in payload["participants"]:
        node = sim.components[name]
        if decision is not None and name not in sim.crashed and node.version < decision:
            node.version = decision
        versions[name] = node.version
    self.instances.append(deploy.CollectiveInstance(
        payload["cid"], event.time, payload["participants"], versions, ()))


def _fill_unseeded(self, k):
    """_UniformStream.fill drawing from a generator seeded by the OS."""
    if self._getrandbits is None:
        self._getrandbits = random.Random().getrandbits
    return _fill(self, k)


MUTANTS = [
    (acceptance.test_criterion_1_reference_table, "linearised-reliability",
     lattice, "pr_atomic_binary", _linearised_reliability),
    (acceptance.test_criterion_1_reference_table, "bottom-all-term-dropped",
     lattice, "pr_atomic_binary", _bottom_all_term_dropped),
    (acceptance.test_criterion_2_monte_carlo_agreement, "monte-carlo-shifted-q",
     epochsim, "monte_carlo_atomicity", _monte_carlo_shifted),
    (acceptance.test_criterion_3_witness_grid, "straddle-targets-wrong-component",
     adversary.StraddlingSchedule, "delay_policy", _straddle_of_the_next_component),
    (acceptance.test_criterion_4_bilateral_battery, "commit-on-majority",
     protocols.BilateralCoordinator, "on_event", _commit_on_majority),
    (acceptance.test_criterion_4_bilateral_battery, "recovery-ignores-log",
     PersistenceProcess, "on_recover", _recovery_ignoring_the_log),
    (acceptance.test_criterion_5_moment_skew, "beta1-swapped",
     optimizer, "_adamw_update", _beta1_swapped),
    (acceptance.test_criterion_6_trajectory_divergence, "skew-on-v",
     epochsim, "trajectory_divergence", _divergence_with_v_lagging),
    (acceptance.test_criterion_7_oracle_equivalence, "bias-correction-off-by-one",
     optimizer, "_adamw_update", _bias_correction_a_step_late),
    (acceptance.test_criterion_8_retry_amplification, "amplification-ignored",
     protocols.RetryModel, "failure_prob", _unamplified_failure_prob),
    (acceptance.test_criterion_9_deploy_contrast, "fence-dropped",
     deploy._CollectiveRunner, "on_event", _run_collective_unfenced),
    (acceptance.test_criterion_10_determinism, "unseeded-delay-stream",
     kernel._UniformStream, "fill", _fill_unseeded),
]

# A participant refuses a commit directive before its staged data is
# durable, so a majority commit stops the battery at its first such run.
REFUSED = {"commit-on-majority": ProtocolViolation}


@pytest.mark.parametrize("criterion,owner,name,mutant,error", [
    pytest.param(criterion, owner, name, mutant, REFUSED.get(mutant_id, AssertionError),
                 id=f"criterion-{criterion.__name__.split('_')[2]}-{mutant_id}")
    for criterion, mutant_id, owner, name, mutant in MUTANTS])
def test_criterion_kills_its_mutant(monkeypatch, criterion, owner, name, mutant, error):
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(error):
        criterion()
