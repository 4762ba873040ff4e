"""Guards on the per-event path: no enum lookups, draws equal to randint, shared states."""

from __future__ import annotations

import ast
import inspect
import itertools
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
from epochsim.persistence import ACTIVE_STAGE_NAMES, PersistenceStage

# Functions run once per event, per delivery or per component. Each reads the
# enum members it needs from module-level names bound at import.
HOT_FUNCTIONS = [
    kernel.Simulation.send,
    kernel.Simulation.broadcast,
    kernel.Simulation.set_timer,
    kernel.Simulation.inject_crash,
    kernel.Simulation.run_until_quiescent,
    kernel._block_values,
    kernel._keyless,
    kernel.FixedDelay.draws,
    kernel.UniformDelay.draws,
    kernel.AdversarialSchedule.draws,
    persistence.PersistenceProcess.__init__,
    persistence.PersistenceProcess.on_event,
    persistence.PersistenceProcess.begin_persist,
    persistence.PersistenceProcess._complete,
    persistence.PersistenceProcess.apply_directive,
    persistence.PersistenceProcess.on_crash,
    persistence.PersistenceProcess.on_recover,
    persistence.PersistenceProcess.staged_ready.fget,
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


# Batch sizes the draw tests cycle through: single draws, a persist's five
# stages, and fan-outs up to 64 destinations.
BATCH_SIZES = (1, 5, 2, 64, 3, 1, 17)


def _batch(draws, which: int, k: int) -> list[int]:
    """k values from one of a run's three draw callables, batched where it can."""
    message_delays, stage_durations, recovery_delay = draws
    if which == 0:
        return list(message_delays("a", [f"d{j}" for j in range(k)], {}))
    if which == 1:
        return list(stage_durations("a", (ACTIVE_STAGE_NAMES * 13)[:k]))
    return [recovery_delay("a") for _ in range(k)]


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 3), (1, 4), (1, 40)])
def test_uniform_draws_equal_randint(lo, hi):
    # Each of the three callables, drawn on its own in batches of 1 to 64,
    # gives the values that successive randint(lo, hi) calls give.
    for i in range(3):
        ours, reference = random.Random(i), random.Random(i)
        draws = UniformDelay(lo, hi).draws(lambda: ours)
        got: list[int] = []
        for k in itertools.cycle(BATCH_SIZES):
            if len(got) >= 35_000:
                break
            got += _batch(draws, i, k)
        assert got == [reference.randint(lo, hi) for _ in range(len(got))]
        if hi > 255:  # one randint call per value, so the streams end level
            assert ours.getstate() == reference.getstate()
    # A persist's one batched stage draw equals five single-stage draws.
    batched = UniformDelay(lo, hi).draws(lambda: random.Random(7))[1]
    single = UniformDelay(lo, hi).draws(lambda: random.Random(7))[1]
    for _ in range(2_000):
        assert list(batched("a", ACTIVE_STAGE_NAMES)) == [
            value for stage in ACTIVE_STAGE_NAMES for value in single("a", (stage,))]


def _no_rng():
    raise AssertionError("the policy built a generator")


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
    # builds a generator.
    message_delays, stage_durations, recovery_delay = policy.draws(_no_rng)
    got = [*message_delays("a", ["b"], {"type": "ready"}),
           *message_delays("b", ["a"], {"type": "ready"}),
           *message_delays("a", ["b"], {"type": "ack"}),
           *stage_durations("a", ["FSYNC"]),
           *stage_durations("b", ["FSYNC"]),
           recovery_delay("a")]
    assert got == expected
    # A batched draw gives each destination's and each stage's single draw.
    dsts = ["b", "a", "b", "c"] * 16
    assert list(message_delays("a", dsts, {"type": "ready"})) == [
        value for dst in dsts for value in message_delays("a", [dst], {"type": "ready"})]
    for component in ("a", "b"):
        assert list(stage_durations(component, ACTIVE_STAGE_NAMES)) == [
            value for stage in ACTIVE_STAGE_NAMES
            for value in stage_durations(component, [stage])]


def test_a_run_that_draws_nothing_seeds_nothing(monkeypatch):
    # A simulation builds its generator on the first draw that needs one.
    # The deploy cases are built first: the case design has its own stream.
    straddle, *cases = itertools.islice(deploy.deploy_candidates(16, 5), 40)
    quiet = next(c for c in cases if not c.crashes)
    built: list[int] = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", CountingRandom)
    # Fan-outs, persists, a crash with its recovery delay and a rollback.
    sim = kernel.new_simulation(4, FixedDelay(2), seed=3)
    assert protocols.run_bilateral(sim, protocols.BilateralConfig(),
                                   crashes=[("c1", 4)]).decision.value == "rolled_back"
    deploy.run_case_naive(straddle)       # AdversarialSchedule
    deploy.run_case_consensus(straddle)
    deploy.run_case_consensus(quiet)      # UniformDelay(1, 40), nothing drawn
    assert built == []

    # A run that draws builds one generator, seeded with the run's seed, and
    # its delays are that generator's randint values.
    sim = Simulation(UniformDelay(1, 40), seed=11,
                     components=[kernel.Component(f"r{i}") for i in range(64)])
    events = sim.broadcast("src", sim.component_names(), {})
    assert built == [11]
    reference = random.Random(11)
    assert [ev.time for ev in events] == [reference.randint(1, 40) for _ in events]
    built.clear()
    deploy.run_case_naive(quiet)
    assert built == [quiet.seed]


def test_src_reads_no_private_random_attribute():
    # random.Random's _rand* names are CPython internals that may change
    # between releases; delay draws use only its public methods.
    offenders = []
    for path in sorted(Path(epochsim.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_rand"):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert offenders == []


# Calls that change a dict in place.
DICT_MUTATORS = frozenset({"update", "pop", "popitem", "clear", "setdefault",
                           "__setitem__", "__delitem__", "__ior__"})


def _payload_writes(tree: ast.AST) -> list[int]:
    """Lines where a function writes into an event payload it was handed.

    A payload is an `x.payload` attribute, a parameter named payload, or a
    local name bound to either. A write assigns or deletes an item, or
    calls a mutating dict method.
    """
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        aliases = {a.arg for a in args if a.arg == "payload"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "payload":
                aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}

        def handed(expr: ast.expr) -> bool:
            return ((isinstance(expr, ast.Attribute) and expr.attr == "payload")
                    or (isinstance(expr, ast.Name) and expr.id in aliases))

        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            if any(isinstance(t, ast.Subscript) and handed(t.value) for t in targets):
                lines.append(node.lineno)
            if (isinstance(node, ast.AugAssign) and handed(node.target)) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DICT_MUTATORS and handed(node.func.value)):
                lines.append(node.lineno)
    return sorted(lines)


def test_payload_write_check_sees_each_kind_of_write():
    bad = """
def on_event(self, sim, event):
    event.payload["seen"] = True
def on_crash(self, sim, event):
    payload = event.payload
    payload.update(seen=True)
    payload |= {"seen": True}
def schedule(self, time, target, kind, payload):
    del payload["src"]
"""
    assert _payload_writes(ast.parse(bad)) == [3, 6, 7, 9]
    good = """
def send(self, src, dst, msg):
    payload = dict(msg)
    payload["src"] = src
def on_event(self, sim, event):
    copy = dict(event.payload)
    copy["seen"] = event.payload.get("seen")
"""
    assert _payload_writes(ast.parse(good)) == []


def test_src_writes_into_no_event_payload():
    # The events of one broadcast share one payload dict, and a processed
    # event is its own trace record, so a handler that wrote into its
    # payload would change its siblings' deliveries and the trace.
    offenders = []
    for path in sorted(Path(epochsim.__file__).parent.rglob("*.py")):
        for line in _payload_writes(ast.parse(path.read_text(), str(path))):
            offenders.append(f"{path.name}:{line}")
    assert offenders == []


def _bound_draws(lo: int, hi: int, seed: int, count: int) -> list[int]:
    """count delays from a Simulation's bound draws, the three interleaved:
    a fan-out to three destinations, a persist's five stages, a recovery."""
    sim = Simulation(UniformDelay(lo, hi), seed)
    calls = (lambda: sim.message_delays("a", "bcd", {}),
             lambda: sim.stage_durations("a", ACTIVE_STAGE_NAMES),
             lambda: [sim.recovery_delay("a")])
    got: list[int] = []
    for call in itertools.cycle(calls):
        if len(got) >= count:
            return got[:count]
        got += call()


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 40), (200, 255)])
def test_bound_draws_equal_randint(lo, hi, seed):
    # Block-drawn values are the values successive randint(lo, hi) calls
    # give; 35,000 draws cross several block refills.
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
    # whatever its epoch; the epoch travels beside it on the component.
    a, b = (persistence.PersistenceProcess(f"c{i}", epoch=e) for i, e in enumerate((1, 3)))
    assert a.state is b.state is EpochSymbol.E_MINUS_1
    assert (a.epoch, a.state) == (1, EpochSymbol.E_MINUS_1)
    assert (a.epoch, a.state) != (b.epoch, b.state)
