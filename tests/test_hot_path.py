"""Guards on the per-event path: no enum lookups, draws equal to randint, shared states."""

from __future__ import annotations

import ast
import contextlib
import inspect
import itertools
import random
import types
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epochsim
from epochsim import deploy, kernel, lattice, persistence, protocols
from epochsim.deploy import FencePolicy, FirmwareEpoch
from epochsim.kernel import (AdversarialSchedule, ConfigError, EventKind, FixedDelay, Simulation,
                             UniformDelay)
from epochsim.lattice import EpochSymbol
from epochsim.persistence import ACTIVE_STAGE_NAMES, PersistenceStage

# Functions run once per event, per delivery or per component. Each reads the
# enum members it needs from module-level names bound at import.
HOT_FUNCTIONS = [
    kernel.Simulation.schedule,
    kernel.Simulation.send,
    kernel.Simulation.broadcast,
    kernel.Simulation.set_timer,
    kernel.Simulation.inject_crash,
    kernel.Simulation.run_until_quiescent,
    kernel._block_values,
    kernel._UniformStream.fill,
    kernel._UniformStream.draws,
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
        reference = random.Random(i)
        draws = UniformDelay(lo, hi).draws(i)
        got: list[int] = []
        for k in itertools.cycle(BATCH_SIZES):
            if len(got) >= 35_000:
                break
            got += _batch(draws, i, k)
        assert got == [reference.randint(lo, hi) for _ in range(len(got))]
    # A persist's one batched stage draw equals five single-stage draws.
    batched = UniformDelay(lo, hi).draws(7)[1]
    single = UniformDelay(lo, hi).draws(7)[1]
    for _ in range(2_000):
        assert list(batched("a", ACTIVE_STAGE_NAMES)) == [
            value for stage in ACTIVE_STAGE_NAMES for value in single("a", (stage,))]


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
    with _counting_generators() as built:
        message_delays, stage_durations, recovery_delay = policy.draws(3)
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
    assert built == []


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


@contextlib.contextmanager
def _counting_generators() -> Iterator[list[int]]:
    """Patch random.Random to record the seed of each generator built."""
    built: list[int] = []
    original = random.Random

    class CountingRandom(original):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    random.Random = CountingRandom
    try:
        yield built
    finally:
        random.Random = original


# (simulation index, which draw callable, batch size) steps.
_stream_steps = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.sampled_from(BATCH_SIZES)), max_size=40)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 16), sims=st.integers(2, 3),
       steps=_stream_steps)
def test_a_case_seeds_one_stream_that_its_simulations_share(seed, n, sims, steps):
    # Every simulation of a battery or deploy case reads the case's one delay
    # stream from its first value, in whatever order their draws interleave:
    # each gets the values a generator seeded alone with the case's seed
    # gives, and the case builds one generator, on the first draw.
    battery = protocols.battery_case(n, seed)
    fleet = deploy.random_deploy_case(n, seed)
    for case, build, policy in (
            (battery, battery.simulation, protocols.BATTERY_DELAY),
            (fleet, lambda: deploy._build_sim(fleet.n, fleet._delays, fleet.seed),
             fleet.delay)):
        with _counting_generators() as built:
            runs = [build() for _ in range(sims)]
            got: list[list[int]] = [[] for _ in runs]
            for index, which, k in steps:
                if index < sims:
                    sim = runs[index]
                    got[index] += _batch((sim.message_delays, sim.stage_durations,
                                          sim.recovery_delay), which, k)
        assert built == ([case.seed] if any(got) else [])
        for values in got:
            reference = random.Random(case.seed)
            assert values == [reference.randint(policy.lo, policy.hi) for _ in values]


def test_each_case_seeds_its_delay_stream_once():
    # A battery run index builds one generator for its crash schedule and,
    # when it is simulated, one for both protocols' delays; a deploy case's
    # two runs build one for their delays. Each simulation seeded its own
    # before: 320, 24 and 29.
    cases = list(itertools.islice(deploy.deploy_candidates(16, 1), 17))[1:]
    with _counting_generators() as built:
        protocols.compare_protocols(4, 200, 0)
        assert len(built) == 260  # 200 crash schedules, 60 simulated run indices
        built.clear()
        protocols.compare_protocols(64, 8, 1)
        assert len(built) == 16
        built.clear()
        for case in cases:
            deploy.run_case_naive(case)
            deploy.run_case_consensus(case)
        assert built == [case.seed for case in cases]


def test_a_case_stream_refuses_a_run_of_another_seed():
    # A case's delay stream owns the case's seed. A run of another seed is
    # refused, not handed this seed's values, and the stream still serves
    # the runs of its own seed from value 0.
    case = protocols.battery_case(4, 5)
    drawn = list(case.simulation().message_delays("c0", ["c1", "c2", "c3"] * 4, {}))
    reference = random.Random(5)
    assert drawn == [reference.randint(1, 3) for _ in drawn]
    with pytest.raises(ConfigError, match="^delay stream of seed 5 refuses a run of seed 6$"):
        kernel.new_simulation(4, case._delays, 6)
    assert list(case.simulation().message_delays("c0", ["c1", "c2", "c3"] * 4, {})) == drawn

    fleet = deploy.random_deploy_case(4, 5)
    naive = deploy.run_case_naive(fleet).to_json_obj()
    with pytest.raises(ConfigError, match="^delay stream of seed 5 refuses a run of seed 6$"):
        deploy.run_naive_deploy(fleet.n, fleet.deploy_time, fleet.collectives,
                                delay=fleet._delays, seed=6)
    assert deploy.run_case_naive(fleet).to_json_obj() == naive


def test_battery_and_deploy_runs_call_no_event_constructor(monkeypatch):
    # The kernel builds every event it queues in place. With Event.__init__
    # raising, an n=64 battery run index and a deploy case still run, both
    # protocols and both modes, and give what they gave before.
    case = protocols.battery_case(64, protocols.derive_seed(9091, 1))  # 11 crashes
    fleet = deploy.random_deploy_case(16, 7)  # 3 crashes
    naive_config = protocols.NaiveCheckpointConfig(boundary_time=10)
    bilateral_config = protocols.BilateralConfig(ack_timeout=30)

    def runs():
        naive = protocols.run_naive(case.simulation(), naive_config, crashes=case.crashes)
        bilateral = protocols.run_bilateral(case.simulation(), bilateral_config,
                                            crashes=case.crashes)
        return ([out.trace.hash64() for out in (naive, bilateral)],
                [deploy.run_case_naive(fleet).to_json_obj(),
                 deploy.run_case_consensus(fleet).to_json_obj()])

    before = runs()

    def refuse(self, *args, **kwargs):
        raise AssertionError("Event.__init__ called")

    monkeypatch.setattr(kernel.Event, "__init__", refuse)
    with pytest.raises(AssertionError, match="Event.__init__ called"):
        kernel.Event(0, 0, "c0", EventKind.CRASH, {})
    assert runs() == before


SOURCES = sorted(Path(epochsim.__file__).parent.rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _scopes_with(tree: ast.AST, hit) -> list[str]:
    """Qualified names of the functions holding a node for which hit(node)
    is true, one entry per such node."""
    scopes = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                scopes.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return scopes


def _calls_new(node: ast.AST) -> bool:
    """node calls _new or object.__new__."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "_new") or (
        isinstance(func, ast.Attribute) and func.attr == "__new__"
        and isinstance(func.value, ast.Name) and func.value.id == "object")


def test_only_schedule_builds_an_event():
    # One queue step: every other queue path (send, broadcast, set_timer,
    # inject_crash, the loop's RECOVER) goes through schedule, so a field
    # added to Event is set in one place.
    callers = [f"{path.name}:{name}"
               for path in SOURCES for name in _scopes_with(_tree(path), _calls_new)]
    assert callers == ["kernel.py:Simulation.schedule"]


def _member_aliases(tree: ast.Module, classes: set[str]) -> list[str]:
    """Module-level names bound to a member of one of classes, as in _X = Cls.X."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name) and node.value.value.id in classes:
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


@pytest.mark.parametrize("classes,owner", [
    ({"EventKind"}, "kernel.py"),
    ({"EpochSymbol", "AtomicityClass"}, "lattice.py"),
], ids=["EventKind", "lattice"])
def test_one_module_binds_the_member_aliases(classes, owner):
    # A per-event alias of a shared enum's member is bound in the enum's own
    # module and imported everywhere else, so each alias has one definition.
    binders = {path.name for path in SOURCES if _member_aliases(_tree(path), classes)}
    assert binders == {owner}


def test_only_emit_reads_the_output_format():
    # Each subcommand hands _emit its text lines, summary and rows, and
    # _emit alone picks the one that --format names.
    readers = _scopes_with(_tree(Path(epochsim.__file__).parent / "cli.py"),
                           lambda node: isinstance(node, ast.Attribute) and node.attr == "format")
    assert readers == ["_emit"]


def test_the_empty_cluster_refusal_is_written_once():
    # Every cluster builder names its members with kernel._cluster_names,
    # which alone refuses an empty cluster.
    message = "cluster size must be at least one component"
    sites = [path.name for path in SOURCES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant) and node.value == message]
    assert sites == ["kernel.py"]


def _module_imports(body: list[ast.stmt]) -> list[str]:
    """Names bound by the imports of a module body, its if/try blocks included."""
    names = []
    for node in body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
        elif isinstance(node, (ast.If, ast.Try)):
            names += _module_imports(node.body + node.orelse)
    return names


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports that no name in the module reads and that
    __all__ does not export."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in _module_imports(tree.body) if name not in used]


def test_unused_import_check_sees_each_kind_of_import():
    source = """
from __future__ import annotations
import json
import os.path
from typing import TYPE_CHECKING, Any
from .kernel import Simulation as Sim, digest64
if TYPE_CHECKING:
    from .lattice import EpochVector
__all__ = ["digest64"]
def f(x: EpochVector) -> Any:
    return json.dumps(x)
"""
    assert _unused_imports(ast.parse(source)) == ["os", "Sim"]


def test_src_has_no_unused_module_import():
    # A definition moved to its one owner leaves no import behind.
    unused = [f"{path.name}: {name}" for path in SOURCES for name in _unused_imports(_tree(path))]
    assert unused == []


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
