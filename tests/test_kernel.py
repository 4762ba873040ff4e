"""Event kernel: ordering, determinism, crash bookkeeping, limits."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epochsim import deploy, protocols
from epochsim.kernel import (
    AdversarialSchedule,
    Component,
    ConfigError,
    DelayPolicy,
    Event,
    EventKind,
    FixedDelay,
    SchedulePastError,
    Simulation,
    StepLimitExceeded,
    Trace,
    UniformDelay,
    digest64,
    new_simulation,
)
from epochsim.lattice import EpochSymbol
from epochsim.persistence import ACTIVE_STAGE_NAMES, PersistenceProcess


class Recorder(Component):
    """Collects every event it receives, in order."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.seen: list[tuple[int, int, str]] = []

    def on_event(self, sim: Simulation, event) -> None:
        self.seen.append((event.time, event.seq, event.payload.get("tag", "")))


def _sim(n: int = 1, seed: int = 0) -> tuple[Simulation, list[Recorder]]:
    sim = Simulation(FixedDelay(1), seed)
    recs = [Recorder(f"r{i}") for i in range(n)]
    for r in recs:
        sim.register(r)
    return sim, recs


def test_same_time_events_fire_in_schedule_order():
    sim, (rec,) = _sim()
    sim.schedule(5, "r0", EventKind.LOCAL_STEP, {"tag": "a"})
    sim.schedule(5, "r0", EventKind.LOCAL_STEP, {"tag": "b"})
    sim.schedule(3, "r0", EventKind.LOCAL_STEP, {"tag": "c"})
    sim.run_until_quiescent()
    assert [s[2] for s in rec.seen] == ["c", "a", "b"]


def test_seq_breaks_time_ties_lexicographically():
    sim, (rec,) = _sim()
    sim.schedule(2, "r0", EventKind.LOCAL_STEP, {"tag": "x"})
    sim.schedule(2, "r0", EventKind.LOCAL_STEP, {"tag": "y"})
    sim.run_until_quiescent()
    (t1, s1, _), (t2, s2, _) = rec.seen
    assert t1 == t2 == 2
    assert s1 < s2


def test_schedule_in_past_raises():
    sim, _ = _sim()
    sim.schedule(1, "r0", EventKind.LOCAL_STEP, {})
    sim.run_until_quiescent()
    with pytest.raises(SchedulePastError):
        sim.schedule(0, "r0", EventKind.LOCAL_STEP, {})
    with pytest.raises(SchedulePastError, match="^cannot send at t=0, now is t=1$"):
        sim.broadcast("r0", ["r0"], {}, at=0)


def test_unknown_target_rejected():
    sim, _ = _sim()
    with pytest.raises(ConfigError):
        sim.schedule(1, "nobody", EventKind.LOCAL_STEP, {})
    # send keeps the same check.
    with pytest.raises(ConfigError, match="^unknown component 'nobody'$"):
        sim.send("r0", "nobody", {})
    # A broadcast fails where a loop of sends would: after queueing the
    # destinations before the unknown one.
    with pytest.raises(ConfigError, match="^unknown component 'nobody'$"):
        sim.broadcast("r0", ["r0", "nobody", "r0"], {"tag": "first"})
    sim.schedule(5, "r0", EventKind.LOCAL_STEP, {"tag": "next"})
    assert [(r.seq, r.payload["tag"]) for r in sim.run_until_quiescent().records] \
        == [(1, "first"), (2, "next")]


def test_duplicate_registration_rejected():
    sim, _ = _sim()
    with pytest.raises(ConfigError):
        sim.register(Recorder("r0"))


def test_identical_seed_identical_trace():
    def run(seed: int) -> Trace:
        sim = new_simulation(3, UniformDelay(1, 5), seed=seed)
        for name in sim.component_names():
            sim.send("driver", name, {"type": "checkpoint", "epoch": 1})
        sim.inject_crash("c1", 4)
        return sim.run_until_quiescent()

    a, b = run(99), run(99)
    assert a.to_jsonl() == b.to_jsonl()
    assert a.records == b.records  # records compare field by field
    assert run(100).to_jsonl() != a.to_jsonl()


def test_trace_hash_is_stable_blake2b():
    sim, _ = _sim()
    sim.schedule(1, "r0", EventKind.LOCAL_STEP, {"tag": "z"})
    trace = sim.run_until_quiescent()
    assert trace.hash64() == digest64(trace.to_jsonl())
    assert len(trace.hash64()) == 16
    assert all(c in "0123456789abcdef" for c in trace.hash64())


def test_trace_jsonl_round_trips():
    sim, _ = _sim()
    sim.schedule(1, "r0", EventKind.LOCAL_STEP, {"tag": "z"})
    trace = sim.run_until_quiescent()
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == len(trace.records)
    first = json.loads(lines[0])
    assert first["target"] == "r0"
    assert first["time"] == 1


def test_step_limit_enforced():
    class Pinger(Component):
        def on_event(self, sim: Simulation, event) -> None:
            sim.schedule(event.time + 1, self.name, EventKind.LOCAL_STEP, {})

    sim = Simulation(FixedDelay(1), 0, step_limit=50)
    sim.register(Pinger("p"))
    sim.schedule(1, "p", EventKind.LOCAL_STEP, {})
    with pytest.raises(StepLimitExceeded):
        sim.run_until_quiescent()


def test_step_limit_must_be_positive():
    with pytest.raises(ConfigError, match="^step limit must be positive$"):
        Simulation(FixedDelay(1), 0, step_limit=0)


def test_new_simulation_registers_its_cluster_in_order():
    sim = new_simulation(5, FixedDelay(1), seed=0)
    assert sim.component_names() == ["c0", "c1", "c2", "c3", "c4"]
    assert all(sim.handler(name).name == name for name in sim.component_names())
    assert list(sim.components) == sim.component_names()
    with pytest.raises(TypeError):  # a read-only view of the registry
        sim.components["c9"] = PersistenceProcess("c9", epoch=1)
    view = sim.components  # one live view, built with the simulation
    sim.register(Recorder("r0"))
    assert sim.components is view and view["r0"] is sim.handler("r0")
    with pytest.raises(ConfigError, match="^component 'c3' already registered$"):
        sim.register(PersistenceProcess("c3", epoch=1))


def test_deploy_fleet_is_registered_in_order():
    sim = deploy._build_sim(3, FixedDelay(1), 0)
    assert sim.component_names() == ["n0", "n1", "n2"]
    nodes = [sim.handler(name) for name in sim.component_names()]
    assert all(isinstance(node, deploy.FirmwareNode) for node in nodes)
    assert [node.name for node in nodes] == ["n0", "n1", "n2"]


def test_components_given_at_construction_must_have_distinct_names():
    with pytest.raises(ConfigError, match="^component names must be distinct$"):
        Simulation(FixedDelay(1), 0, components=[Recorder("r0"), Recorder("r0")])


def test_new_simulation_refuses_an_empty_cluster():
    with pytest.raises(ConfigError, match="^cluster size must be at least one component$"):
        new_simulation(0, FixedDelay(1), seed=0)


def test_events_to_crashed_target_dropped_and_recorded():
    sim, (rec,) = _sim()
    sim.inject_crash("r0", 2)
    # r0 recovers at 2 + recovery_delay(=1) = 3; message at 2 lands mid-crash
    sim.schedule(2, "r0", EventKind.DELIVER, {"tag": "lost"})
    sim.schedule(4, "r0", EventKind.DELIVER, {"tag": "kept"})
    trace = sim.run_until_quiescent()
    assert [s[2] for s in rec.seen] == ["kept"]
    dropped = [r for r in trace.records if r.dropped]
    assert len(dropped) == 1
    assert dropped[0].payload["tag"] == "lost"


def test_permanent_crash_never_recovers():
    sim, (rec,) = _sim()
    sim.inject_crash("r0", 2, permanent=True)
    sim.schedule(50, "r0", EventKind.DELIVER, {"tag": "late"})
    trace = sim.run_until_quiescent()
    assert rec.seen == []
    assert not any(r.kind == "recover" for r in trace.records)
    assert "r0" in sim.crashed


def test_crash_of_crashed_component_is_noop():
    sim, _ = _sim()
    sim.inject_crash("r0", 2)
    sim.inject_crash("r0", 2)
    trace = sim.run_until_quiescent()
    notes = [r.note for r in trace.records if r.kind == "crash"]
    assert notes == [None, "already crashed"]
    # only one recovery got scheduled
    assert sum(1 for r in trace.records if r.kind == "recover") == 1


def test_adversarial_schedule_overrides_specific_edges():
    policy = AdversarialSchedule(
        message_delays={("r1", "checkpoint"): 17},
        default_message_delay=2)
    sim = Simulation(policy, seed=0)
    recs = [Recorder("r0"), Recorder("r1")]
    for r in recs:
        sim.register(r)
    sim.send("src", "r0", {"type": "checkpoint"})
    sim.send("src", "r1", {"type": "checkpoint"})
    sim.run_until_quiescent()
    assert recs[0].seen[0][0] == 2
    assert recs[1].seen[0][0] == 17


def test_delay_policies_reject_nonpositive_ticks():
    with pytest.raises(ValueError):
        FixedDelay(0)
    with pytest.raises(ValueError):
        UniformDelay(0, 3)
    with pytest.raises(ValueError):
        UniformDelay(4, 3)
    with pytest.raises(ConfigError, match="^uniform delay hi must be at most 255$"):
        UniformDelay(1, 256)  # values are drawn a byte at a time
    with pytest.raises(ValueError):
        AdversarialSchedule(default_message_delay=0)


@pytest.mark.parametrize("tick", [1.5, 3.0, True], ids=repr)
def test_delay_policies_reject_non_integer_ticks(tick):
    # Virtual time is an integer tick count: a float would queue events at
    # fractional times, and a bool is not a count.
    message = f"^ticks must be int, got {tick!r}$"
    for build in (lambda: FixedDelay(tick),
                  lambda: UniformDelay(tick, 3),
                  lambda: UniformDelay(1, tick),
                  lambda: AdversarialSchedule(default_message_delay=tick),
                  lambda: AdversarialSchedule(default_stage_duration=tick),
                  lambda: AdversarialSchedule(default_recovery_delay=tick),
                  lambda: AdversarialSchedule(message_delays={("r0", "ping"): tick}),
                  lambda: AdversarialSchedule(stage_durations={("r0", "FSYNC"): tick})):
        with pytest.raises(ConfigError, match=message):
            build()


# Every place a caller hands the kernel a tick, each given the bad tick.
TICK_SITES = {
    "NaiveCheckpointConfig": lambda t: protocols.NaiveCheckpointConfig(boundary_time=t),
    "BilateralConfig": lambda t: protocols.BilateralConfig(ack_timeout=t),
    "CollectiveSpec": lambda t: deploy.CollectiveSpec(0, t, ("n0",)),
    "run_naive_deploy": lambda t: deploy.run_naive_deploy(2, t, [], delay=FixedDelay(3)),
    "run_consensus_deploy": lambda t: deploy.run_consensus_deploy(
        2, [], propose_time=t, delay=FixedDelay(1)),
    "run_naive crashes": lambda t: protocols.run_naive(
        new_simulation(2, FixedDelay(1), 0), protocols.NaiveCheckpointConfig(),
        crashes=[("c1", t)]),
    "set_timer": lambda t: _sim()[0].set_timer("r0", t, {}),
    "broadcast at": lambda t: _sim()[0].broadcast("r0", ["r0"], {}, at=t),
    "inject_crash": lambda t: _sim()[0].inject_crash("r0", t),
}


@pytest.mark.parametrize("tick", [10.5, 3.0, True], ids=repr)
@pytest.mark.parametrize("site", TICK_SITES.values(), ids=TICK_SITES.keys())
def test_every_tick_from_a_caller_must_be_an_int(site, tick):
    # Each of these once queued events at fractional ticks (10.5, a crash
    # at 7.5 recovering at 9.5) or took True as one tick.
    with pytest.raises(ConfigError, match=f"^ticks must be int, got {tick!r}$"):
        site(tick)


def test_every_scheduled_message_eventually_delivers():
    # no events are lost when targets stay up: scan trace for all tags
    sim, recs = _sim(n=4, seed=5)
    tags = [f"m{i}" for i in range(20)]
    for i, tag in enumerate(tags):
        sim.schedule(1 + (i % 7), f"r{i % 4}", EventKind.DELIVER, {"tag": tag})
    sim.run_until_quiescent()
    seen = [tag for r in recs for _, _, tag in r.seen]
    assert sorted(seen) == sorted(tags)


def test_empty_queue_yields_empty_trace_and_initial_states():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    trace = sim.run_until_quiescent()
    assert trace.records == ()
    states = [(p.epoch, p.state) for p in sim.components.values()]
    assert states == [(1, EpochSymbol.E_MINUS_1)] * 2  # untouched prior


FANOUT_POLICIES = [
    FixedDelay(3), UniformDelay(1, 3), UniformDelay(1, 40),
    AdversarialSchedule(message_delays={("r5", "ping"): 9, ("r63", "ping"): 4},
                        default_message_delay=2),
]


@pytest.mark.parametrize("policy", FANOUT_POLICIES, ids=[
    "FixedDelay(3)", "UniformDelay(1,3)", "UniformDelay(1,40)",
    "AdversarialSchedule"])
def test_broadcast_equals_one_send_per_destination(policy):
    # A fan-out to k destinations queues the events k sends would, in the
    # same order, and leaves the draw stream where they would: the next
    # message and stage draws agree too. send queues its own delivery, so
    # k = 1 checks its time, seq and payload against a one-destination
    # broadcast.
    names = [f"r{i}" for i in range(64)]
    for k in range(1, 65):
        dsts = [names[(j * j + k) % 64] for j in range(k)]  # some repeat
        fan, one = (Simulation(policy, k, components=[Recorder(n) for n in names])
                    for _ in range(2))
        for sim in (fan, one):
            sim.schedule(2, "r0", EventKind.LOCAL_STEP, {"tag": "before"})
        msg = {"type": "ping", "tag": "fan"}
        fanned = fan.broadcast("src", dsts, msg)
        sent = [one.send("src", dst, msg) for dst in dsts]
        assert [e.to_obj() for e in fanned] == [e.to_obj() for e in sent]
        assert all(e.payload is fanned[0].payload for e in fanned)
        assert fan.send("src", "r1", msg).to_obj() == one.send("src", "r1", msg).to_obj()
        assert list(fan.stage_durations("r1", ACTIVE_STAGE_NAMES)) == list(
            one.stage_durations("r1", ACTIVE_STAGE_NAMES))
        assert fan.run_until_quiescent().to_jsonl() == one.run_until_quiescent().to_jsonl()


class _ShortDraws(FixedDelay):
    """Gives one delay fewer than a fan-out has destinations."""

    def draws(self, seed):
        message_delays, stage_durations, recovery_delay = super().draws(seed)
        return (lambda src, dsts, msg: message_delays(src, dsts, msg)[1:],
                stage_durations, recovery_delay)


def test_broadcast_refuses_a_draw_of_the_wrong_length():
    # Without the check, the destinations past the end of a short draw
    # would get no delivery and nothing would say so.
    sim = Simulation(_ShortDraws(2), 0, components=[Recorder("r0"), Recorder("r1")])
    with pytest.raises(ConfigError, match="^delay policy gave 1 delays for 2 destinations$"):
        sim.broadcast("src", ["r0", "r1"], {"tag": "fan"})
    with pytest.raises(ConfigError, match="^delay policy gave 0 delays for 1 destinations$"):
        sim.send("src", "r0", {})
    assert sim.run_until_quiescent().records == ()


class _ZeroDraws(FixedDelay):
    """Gives every message a delay of zero ticks."""

    def draws(self, seed):
        _, stage_durations, recovery_delay = super().draws(seed)
        return (lambda src, dsts, msg: [0] * len(dsts), stage_durations, recovery_delay)


@pytest.mark.parametrize("policy,dst,message", [
    (FixedDelay(2), "nobody", "^unknown component 'nobody'$"),
    (_ShortDraws(2), "r0", "^delay policy gave 0 delays for 1 destinations$"),
    (_ZeroDraws(2), "r0", "^message delay must be at least one tick$"),
    # The draw is checked before the destination, as broadcast checks it.
    (_ShortDraws(2), "nobody", "^delay policy gave 0 delays for 1 destinations$"),
    (_ZeroDraws(2), "nobody", "^message delay must be at least one tick$"),
], ids=["unknown", "short draw", "zero delay", "short draw first", "zero delay first"])
def test_send_refuses_what_broadcast_refuses(policy, dst, message):
    for queue in (lambda sim: sim.send("src", dst, {"tag": "x"}),
                  lambda sim: sim.broadcast("src", [dst], {"tag": "x"})):
        sim = Simulation(policy, 0, components=[Recorder("r0")])
        with pytest.raises(ConfigError, match=message):
            queue(sim)
        # Nothing was queued and no seq was spent.
        assert sim.schedule(1, "r0", EventKind.LOCAL_STEP, {}).seq == 1
        assert [r.seq for r in sim.run_until_quiescent().records] == [1]


class _ZeroAt(DelayPolicy):
    """Message delays of 1 to 3 ticks, except a zero at one position of the
    run's stream of message delays (None: no zero)."""

    def __init__(self, position: int | None) -> None:
        self.position = position

    def draws(self, seed):
        drawn = 0

        def message_delays(src, dsts, msg):
            nonlocal drawn
            first, drawn = drawn, drawn + len(dsts)
            return [0 if i == self.position else 1 + i % 3 for i in range(first, drawn)]

        return message_delays, lambda component, stages: [1] * len(stages), lambda c: 1


@settings(max_examples=150, deadline=None)
@given(dsts=st.lists(st.sampled_from(["r0", "r1", "r2"]), min_size=1, max_size=8),
       position=st.integers(0, 7), unknown=st.booleans())
def test_broadcast_fails_where_a_loop_of_sends_would(dsts, position, unknown):
    # A bad destination or a zero delay at any position fails with the
    # error a loop of sends raises, after the same deliveries were queued
    # with the same seqs, and the next event gets the same seq.
    position %= len(dsts)
    if unknown:
        dsts[position] = "nobody"
    policy = _ZeroAt(None if unknown else position)
    fan, loop = (Simulation(policy, 0, components=[Recorder(f"r{i}") for i in range(3)])
                 for _ in range(2))
    for sim in (fan, loop):
        sim.schedule(1, "r0", EventKind.LOCAL_STEP, {"tag": "before"})
    msg = {"type": "ping", "tag": "fan"}
    with pytest.raises(ConfigError) as fanned:
        fan.broadcast("src", dsts, msg)
    with pytest.raises(ConfigError) as looped:
        for dst in dsts:
            loop.send("src", dst, msg)
    assert str(fanned.value) == str(looped.value) == (
        "unknown component 'nobody'" if unknown else "message delay must be at least one tick")
    after = [sim.schedule(9, "r1", EventKind.LOCAL_STEP, {"tag": "after"}) for sim in (fan, loop)]
    assert after[0].seq == after[1].seq == position + 2
    assert fan.run_until_quiescent().to_jsonl() == loop.run_until_quiescent().to_jsonl()


def test_broadcast_leaves_at_its_departure_tick():
    sim, recs = _sim(n=3)
    events = sim.broadcast("deployer", ["r2", "r0"], {"tag": "late"}, at=10)
    assert [(e.time, e.seq, e.target) for e in events] == [(11, 1, "r2"), (11, 2, "r0")]
    assert events[0].payload == {"tag": "late", "src": "deployer"}
    sim.run_until_quiescent()
    assert [r.seen for r in recs] == [[(11, 2, "late")], [], [(11, 1, "late")]]
    assert sim.broadcast("deployer", [], {}) == []


def test_send_copies_the_message_once():
    # send owns a copy with "src" added; the caller's dict is never aliased
    sim, recs = _sim(n=1)
    msg = {"type": "checkpoint", "tag": "sent"}
    ev = sim.send("driver", "r0", msg)
    msg["tag"] = "mutated"
    msg["extra"] = 1
    sim.run_until_quiescent()
    assert ev.payload == {"type": "checkpoint", "tag": "sent", "src": "driver"}
    assert "src" not in msg
    assert recs[0].seen[0][2] == "sent"


def test_schedule_without_payload_gets_a_fresh_dict():
    sim, _ = _sim(n=1)
    a = sim.schedule(1, "r0", EventKind.LOCAL_STEP)
    b = sim.schedule(1, "r0", EventKind.LOCAL_STEP, None)
    assert a.payload == {} and b.payload == {}
    assert a.payload is not b.payload


def test_processed_events_are_the_trace_records():
    # The loop records each event object it processes, setting dropped or
    # note on it, instead of copying it into a second record type.
    sim, _ = _sim()
    step = sim.schedule(1, "r0", EventKind.LOCAL_STEP, {"tag": "a"})
    crash = sim.inject_crash("r0", 2)
    msg = sim.send("driver", "r0", {"tag": "b"})
    lost = sim.schedule(2, "r0", EventKind.DELIVER, {"tag": "lost"})
    again = sim.inject_crash("r0", 2)
    trace = sim.run_until_quiescent()
    assert len(trace.records) == 6
    for record, event in zip(trace.records, [step, msg, crash, lost, again]):
        assert record is event
    assert lost.dropped and lost.note is None
    assert again.note == "already crashed" and not again.dropped
    assert not any(e.dropped or e.note for e in (step, msg, crash))
    assert trace.records[-1].kind is EventKind.RECOVER
    for record in trace.records:
        kind = record.to_obj()["kind"]
        assert type(kind) is str and kind == record.kind.value
        with pytest.raises(TypeError):
            hash(record)


def _assert_built_as_constructed(event) -> None:
    """event equals Event(...) of its first five fields, field by field."""
    ref = Event(event.time, event.seq, event.target, event.kind, event.payload)
    assert type(event) is Event
    assert event.dropped is False and event.note is None
    for f in fields(Event):
        assert getattr(event, f.name) == getattr(ref, f.name), f.name
    assert event == ref and repr(event) == repr(ref)
    assert event.to_obj() == ref.to_obj()


def test_every_queue_path_builds_the_event_its_constructor_would():
    # schedule builds events in place, without Event.__init__, and every
    # other path queues through it. A field it misses shows here as an
    # AttributeError or a mismatch.
    sim, _ = _sim(n=2)
    queued = [
        sim.schedule(4, "r0", EventKind.LOCAL_STEP, {"tag": "a"}),
        sim.schedule(4, "r1", EventKind.LOCAL_STEP),
        sim.send("r0", "r1", {"tag": "m"}),
        *sim.broadcast("r1", ["r0", "r1"], {"tag": "b"}, at=2),
        sim.set_timer("r0", 3, {"tag": "t"}),
        sim.inject_crash("r0", 5),
        sim.inject_crash("r1", 6, permanent=True),
    ]
    assert [(e.time, e.seq, e.target, e.kind) for e in queued] == [
        (4, 1, "r0", EventKind.LOCAL_STEP), (4, 2, "r1", EventKind.LOCAL_STEP),
        (1, 3, "r1", EventKind.DELIVER), (3, 4, "r0", EventKind.DELIVER),
        (3, 5, "r1", EventKind.DELIVER), (3, 6, "r0", EventKind.TIMER_FIRE),
        (5, 7, "r0", EventKind.CRASH), (6, 8, "r1", EventKind.CRASH)]
    assert [e.payload for e in queued] == [
        {"tag": "a"}, {}, {"tag": "m", "src": "r0"}, {"tag": "b", "src": "r1"},
        {"tag": "b", "src": "r1"}, {"tag": "t"}, {}, {"permanent": True}]
    for event in queued:
        _assert_built_as_constructed(event)
    trace = sim.run_until_quiescent()
    (recover,) = [e for e in trace.records if e.kind is EventKind.RECOVER]
    assert (recover.time, recover.seq, recover.target, recover.payload) == (6, 9, "r0", {})
    _assert_built_as_constructed(recover)


# -- queue order under same-tick re-entry -----------------------------------

N_SPAWNERS = 3
# LOCAL_STEP and DELIVER twice each, so most follow-ups are ordinary events.
FOLLOW_KINDS = [EventKind.LOCAL_STEP, EventKind.LOCAL_STEP, EventKind.DELIVER,
                EventKind.DELIVER, EventKind.TIMER_FIRE, EventKind.CRASH,
                EventKind.RECOVER]
# (kind, target index, delay from now, permanent crash); delay 0 re-enters
# the tick being processed.
follow_ups = st.tuples(st.sampled_from(FOLLOW_KINDS), st.integers(0, N_SPAWNERS - 1),
                       st.integers(0, 4), st.booleans())
queue_scenarios = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32),
    # Scheduled before the run, at tick 0 + delay.
    "initial": st.lists(follow_ups, min_size=1, max_size=8),
    # The i-th hook call schedules plans[i]; later calls schedule nothing.
    "plans": st.lists(st.lists(follow_ups, max_size=3), max_size=60),
})


class Spawner(Component):
    """Reacts to each event it handles by scheduling the next plan's follow-ups."""

    def __init__(self, name: str, run: _QueueRun) -> None:
        super().__init__(name)
        self.run = run

    def on_event(self, sim: Simulation, event) -> None:
        self.run.react(sim, event)

    on_crash = on_recover = on_event


class _QueueRun:
    """One scenario's simulation, the events it scheduled and the hook calls."""

    def __init__(self, scenario: dict, step_limit: int = 10_000) -> None:
        self.plans = iter(scenario["plans"])
        self.scheduled: list = []
        self.handled: list[tuple[int, int]] = []
        self.sim = Simulation(UniformDelay(1, 2), scenario["seed"], step_limit=step_limit,
                              components=[Spawner(f"s{i}", self)
                                          for i in range(N_SPAWNERS)])
        for kind, target, time, permanent in scenario["initial"]:
            self.schedule(time, kind, target, permanent)

    def schedule(self, time: int, kind: EventKind, target: int, permanent: bool) -> None:
        name = f"s{target}"
        if kind is EventKind.CRASH:
            ev = self.sim.inject_crash(name, time, permanent=permanent)
        else:
            ev = self.sim.schedule(time, name, kind, {})
        self.scheduled.append(ev)

    def react(self, sim: Simulation, event) -> None:
        assert sim.now == event.time
        self.handled.append((event.time, event.seq))
        for kind, target, delay, permanent in next(self.plans, ()):
            self.schedule(sim.now + delay, kind, target, permanent)


def _hook_ran(record) -> bool:
    """Whether the loop passed record to a component hook."""
    if record.kind in (EventKind.CRASH, EventKind.RECOVER):
        return record.note is None
    return not record.dropped


@settings(max_examples=150, deadline=None)
@given(scenario=queue_scenarios, cut=st.floats(0.0, 1.0))
def test_queue_order_with_same_tick_reentry(scenario, cut):
    run = _QueueRun(scenario)
    records = run.sim.run_until_quiescent().records
    keys = [(r.time, r.seq) for r in records]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # Every scheduled event ran exactly once; the rest are the kernel's own
    # recoveries, one per transient crash that took effect.
    assert sorted(r.seq for r in records) == list(range(1, len(records) + 1))
    ids = Counter(id(r) for r in records)
    assert all(ids[id(ev)] == 1 for ev in run.scheduled)
    recoveries = sum(1 for r in records if r.kind is EventKind.CRASH and r.note is None
                     and not r.payload.get("permanent"))
    assert len(records) == len(run.scheduled) + recoveries
    assert run.handled == [(r.time, r.seq) for r in records if _hook_ran(r)]

    # A limit of len(records) lets the run finish; a lower one stops it just
    # before event limit + 1, after the same events ran in the same order.
    assert len(_QueueRun(scenario, len(records)).sim.run_until_quiescent().records) \
        == len(records)
    limit = int(cut * (len(records) - 1))
    if limit >= 1:
        limited = _QueueRun(scenario, limit)
        with pytest.raises(StepLimitExceeded):
            limited.sim.run_until_quiescent()
        assert limited.handled == [(r.time, r.seq) for r in records[:limit] if _hook_ran(r)]
