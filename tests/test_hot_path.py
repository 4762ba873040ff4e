"""Guards on the per-event path: no enum lookups, draws equal to randint, shared states."""

from __future__ import annotations

import ast
import inspect
import random
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epochsim
from epochsim import deploy, kernel, lattice, persistence, protocols
from epochsim.deploy import FencePolicy, FirmwareEpoch
from epochsim.kernel import AdversarialSchedule, EventKind, FixedDelay, Simulation, UniformDelay
from epochsim.lattice import EpochSymbol
from epochsim.persistence import PersistenceStage

# Functions run once per event, per delivery or per component. Each reads the
# enum members it needs from module-level names bound at import.
HOT_FUNCTIONS = [
    kernel.Simulation.send,
    kernel.Simulation.set_timer,
    kernel.Simulation.inject_crash,
    kernel.Simulation.run_until_quiescent,
    kernel._block_values,
    persistence.PersistenceProcess.__init__,
    persistence.PersistenceProcess.on_event,
    persistence.PersistenceProcess.begin_persist,
    persistence.PersistenceProcess._complete,
    persistence.PersistenceProcess.apply_directive,
    persistence.PersistenceProcess.on_crash,
    persistence.PersistenceProcess.on_recover,
    persistence.PersistenceProcess.epoch_state,
    protocols.BilateralCoordinator.on_event,
    deploy.FirmwareNode.__init__,
    deploy.FirmwareNode.on_event,
    deploy._CollectiveRunner.on_event,
    deploy._ProposeHook.on_event,
    deploy._schedule_collectives,
    deploy.run_naive_deploy,
    lattice.EpochVector.classify,
]

ENUMS = (EventKind, PersistenceStage, EpochSymbol, FirmwareEpoch, FencePolicy)
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


# The arguments of message_delay, stage_duration and recovery_delay.
DRAW_ARGS = (("a", "b", {}), ("a", "FSYNC"), ("a",))


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 3), (1, 4), (1, 40), (7, 1000)])
def test_uniform_draws_equal_randint(lo, hi):
    # Each of the three callables, drawn on its own, gives the values that
    # successive randint(lo, hi) calls give.
    for i, args in enumerate(DRAW_ARGS):
        ours, reference = random.Random(i), random.Random(i)
        draw = UniformDelay(lo, hi).draws(ours)[i]
        got = [draw(*args) for _ in range(35_000)]
        assert got == [reference.randint(lo, hi) for _ in range(35_000)]
        if hi > 255:  # one randint call per draw, so the streams end level
            assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("policy,expected", [
    (FixedDelay(4), [4, 4, 4, 4, 4, 4]),
    (AdversarialSchedule(message_delays={("b", "ready"): 5},
                         stage_durations={("a", "FSYNC"): 6},
                         default_message_delay=2, default_stage_duration=3,
                         default_recovery_delay=7),
     [5, 2, 2, 6, 3, 7]),
], ids=["FixedDelay", "AdversarialSchedule"])
def test_policy_draws(policy, expected):
    # An AdversarialSchedule keys messages by (dst, type) and stages by
    # (component, stage); anything else gets the defaults. Neither policy
    # reads the rng.
    rng = random.Random(0)
    message_delay, stage_duration, recovery_delay = policy.draws(rng)
    got = [message_delay("a", "b", {"type": "ready"}),
           message_delay("b", "a", {"type": "ready"}),
           message_delay("a", "b", {"type": "ack"}),
           stage_duration("a", "FSYNC"),
           stage_duration("b", "FSYNC"),
           recovery_delay("a")]
    assert got == expected
    assert rng.getstate() == random.Random(0).getstate()


def test_src_reads_no_private_random_attribute():
    # random.Random's _rand* names are CPython internals that may change
    # between releases; delay draws use only its public methods.
    offenders = []
    for path in sorted(Path(epochsim.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_rand"):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert offenders == []


def _bound_draws(lo: int, hi: int, seed: int, count: int) -> list[int]:
    """count delays from a Simulation's bound draws, the three interleaved."""
    sim = Simulation(UniformDelay(lo, hi), seed)
    calls = (lambda: sim.message_delay("a", "b", {}),
             lambda: sim.stage_duration("a", "FSYNC"),
             lambda: sim.recovery_delay("a"))
    return [calls[i % 3]() for i in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 40), (200, 255),
                                   (7, 1000)])
def test_bound_draws_equal_randint(lo, hi, seed):
    # Block-drawn values (hi <= 255) and the per-call fallback (7, 1000) are
    # the values successive randint(lo, hi) calls give; 35,000 draws cross
    # several block refills.
    reference = random.Random(seed)
    assert _bound_draws(lo, hi, seed, 35_000) == [reference.randint(lo, hi)
                                                  for _ in range(35_000)]


@settings(max_examples=60, deadline=None)
@given(bounds=st.integers(1, 255).flatmap(lambda lo: st.tuples(st.just(lo),
                                                               st.integers(lo, 255))),
       seed=st.integers(0, 2**64 - 1))
def test_block_draws_equal_randint_for_every_byte_range(bounds, seed):
    lo, hi = bounds
    reference = random.Random(seed)
    assert _bound_draws(lo, hi, seed, 3_000) == [reference.randint(lo, hi)
                                                 for _ in range(3_000)]


def test_epoch_states_are_shared_and_compare_as_before():
    # A durable state is an EpochSymbol member, shared by every component
    # whatever its epoch; the epoch travels beside it in epoch_state().
    a, b = (persistence.PersistenceProcess(f"c{i}", epoch=e) for i, e in enumerate((1, 3)))
    assert a.state is b.state is EpochSymbol.E_MINUS_1
    assert a.epoch_state() == (1, EpochSymbol.E_MINUS_1)
    assert a.epoch_state() != b.epoch_state()
