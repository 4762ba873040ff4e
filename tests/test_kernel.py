"""Event kernel: ordering, determinism, crash bookkeeping, limits."""

from __future__ import annotations

import json

import pytest

from epochsim.kernel import (
    AdversarialSchedule,
    Component,
    ConfigError,
    EventKind,
    FixedDelay,
    SchedulePastError,
    SimConfig,
    Simulation,
    StepLimitExceeded,
    Trace,
    UniformDelay,
    digest64,
    new_simulation,
)


class Recorder(Component):
    """Collects every event it receives, in order."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.seen: list[tuple[int, int, str]] = []

    def on_event(self, sim: Simulation, event) -> None:
        self.seen.append((event.time, event.seq, event.payload.get("tag", "")))


def _sim(n: int = 1, seed: int = 0, **kw) -> tuple[Simulation, list[Recorder]]:
    sim = Simulation(SimConfig(n_components=n, delay_policy=FixedDelay(1),
                               seed=seed, **kw))
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


def test_unknown_target_rejected():
    sim, _ = _sim()
    with pytest.raises(ConfigError):
        sim.schedule(1, "nobody", EventKind.LOCAL_STEP, {})


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

    sim = Simulation(SimConfig(n_components=1, delay_policy=FixedDelay(1),
                               seed=0, step_limit=50))
    sim.register(Pinger("p"))
    sim.schedule(1, "p", EventKind.LOCAL_STEP, {})
    with pytest.raises(StepLimitExceeded):
        sim.run_until_quiescent()


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
    assert sim.is_crashed("r0")


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
    sim = Simulation(SimConfig(n_components=2, delay_policy=policy, seed=0))
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
    with pytest.raises(ValueError):
        AdversarialSchedule(default_message_delay=0)


def test_every_scheduled_message_eventually_delivers():
    # no events are lost when targets stay up: scan trace for all tags
    sim, recs = _sim(n=4, seed=5)
    tags = [f"m{i}" for i in range(20)]
    for i, tag in enumerate(tags):
        sim.schedule(1 + (i % 7), f"r{i % 4}", EventKind.DELIVER, {"tag": tag})
    sim.run_until_quiescent()
    seen = [tag for r in recs for _, _, tag in r.seen]
    assert sorted(seen) == sorted(tags)


def test_final_states_keyed_by_component():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    for name in sim.component_names():
        sim.send("driver", name, {"type": "checkpoint", "epoch": 1})
    trace = sim.run_until_quiescent()
    assert set(trace.final_states) == {"c0", "c1"}


def test_empty_queue_yields_empty_trace_and_initial_states():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    trace = sim.run_until_quiescent()
    assert trace.records == ()
    states = trace.final_states
    assert set(states) == {"c0", "c1"}
    assert all(s.epoch == 0 for s in states.values())  # untouched prior epoch


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
