"""Guards on the per-event path: no enum lookups, one-call draws, shared states."""

from __future__ import annotations

import inspect
import random
import types

import pytest

from epochsim import deploy, kernel, lattice, persistence, protocols
from epochsim.deploy import FencePolicy, FirmwareEpoch
from epochsim.kernel import EventKind, UniformDelay
from epochsim.lattice import EpochSymbol
from epochsim.persistence import ComponentEpochState, OutcomeKind, PersistenceStage

# Functions run once per event, per delivery or per component. Each reads the
# enum members it needs from module-level names bound at import.
HOT_FUNCTIONS = [
    kernel.Simulation.send,
    kernel.Simulation.set_timer,
    kernel.Simulation.inject_crash,
    kernel.Simulation.run_until_quiescent,
    persistence.PersistenceProcess.__init__,
    persistence.PersistenceProcess.on_event,
    persistence.PersistenceProcess.begin_persist,
    persistence.PersistenceProcess._complete,
    persistence.PersistenceProcess.apply_directive,
    persistence.PersistenceProcess.on_crash,
    persistence.ComponentEpochState.to_symbol,
    persistence.ComponentEpochState.committed,
    persistence.ComponentEpochState.prior,
    protocols.BilateralCoordinator.on_event,
    deploy.FirmwareNode.__init__,
    deploy.FirmwareNode.on_event,
    deploy._CollectiveRunner.on_event,
    deploy._ProposeHook.on_event,
    deploy._schedule_collectives,
    deploy.run_naive_deploy,
    lattice.classify,
]

ENUMS = (EventKind, PersistenceStage, OutcomeKind, EpochSymbol, FirmwareEpoch,
         FencePolicy)
MEMBER_NAMES = frozenset(name for enum_cls in ENUMS for name in enum_cls.__members__)
# Calling the class, as in FirmwareEpoch(value), looks a member up by value.
ENUM_NAMES = frozenset(enum_cls.__name__ for enum_cls in ENUMS)


def _names(code: types.CodeType) -> set[str]:
    """Global and attribute names read by code and the code nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


@pytest.mark.parametrize("fn", HOT_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_hot_function_reads_no_enum_member_through_its_class(fn):
    code = inspect.unwrap(getattr(fn, "__func__", fn)).__code__
    assert not _names(code) & (MEMBER_NAMES | ENUM_NAMES)


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 3), (1, 4), (1, 40), (7, 1000)])
def test_uniform_draws_equal_randint(lo, hi):
    # UniformDelay calls the private Random._randbelow directly; this pins
    # that each of its draws is still the value randint(lo, hi) would give.
    policy = UniformDelay(lo, hi)
    draws = (lambda r: policy.message_delay(r, "a", "b", {}),
             lambda r: policy.stage_duration(r, "a", "FSYNC"),
             lambda r: policy.recovery_delay(r, "a"))
    for i, draw in enumerate(draws):
        ours, reference = random.Random(i), random.Random(i)
        got = [draw(ours) for _ in range(35_000)]
        assert got == [reference.randint(lo, hi) for _ in range(35_000)]
        assert ours.getstate() == reference.getstate()


def test_epoch_states_are_shared_and_compare_as_before():
    assert ComponentEpochState.prior(1) is ComponentEpochState.prior(1)
    assert ComponentEpochState.committed(3) is ComponentEpochState.committed(3)
    assert ComponentEpochState.ambiguous() is ComponentEpochState.ambiguous()
    a, b = (persistence.PersistenceProcess(f"c{i}", epoch=1) for i in range(2))
    assert a.state is b.state
    assert ComponentEpochState.prior(1) == ComponentEpochState(OutcomeKind.PRIOR, 0)
    assert ComponentEpochState.committed(1) == ComponentEpochState(OutcomeKind.COMMITTED, 1)
    assert ComponentEpochState.prior(1) != ComponentEpochState.committed(0)
    assert ComponentEpochState.prior(1).to_json_obj() == {"kind": "prior", "epoch": 0}
    assert ComponentEpochState.committed(2).to_json_obj() == {"kind": "committed", "epoch": 2}
    assert ComponentEpochState.ambiguous().to_json_obj() == {"kind": "ambiguous",
                                                             "epoch": None}
