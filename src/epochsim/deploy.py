"""Fleet firmware transitions: broadcast-and-hope vs a decision register.

Nodes run firmware F0 and participate in scheduled collective operations.
A naive deploy broadcasts "switch to F1" and lets each node flip on
receipt, so a collective that executes inside the delivery window can
observe both versions among its live participants: a mixed collective.

The consensus deploy routes the transition through a once-writable
linearized decision register. Reading the register before participating
is mandatory, so a live node always observes the committed decision
before it joins a collective; nodes that cannot observe (crashed, or the
register is unavailable) are fenced out, and the collective either
proceeds without them or aborts, per policy. Under this discipline no
collective ever executes with two firmware versions among its correct
participants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Sequence

from .kernel import (AdversarialSchedule, Component, ConfigError, DelayPolicy, Event,
                     EventKind, Simulation, Trace, UniformDelay)
from .protocols import crash_schedule, derive_seed


class FirmwareEpoch(IntEnum):
    F0 = 0
    F1 = 1


class FencePolicy(str, Enum):
    PROCEED = "proceed"  # run with the unfenced participants, if any remain
    ABORT = "abort"      # abort the collective if anyone had to be fenced


# Bound once for the per-delivery, per-node and per-collective paths: a
# global name is about ten times cheaper to read than EventKind.DELIVER,
# and a dict lookup than the call FirmwareEpoch(value).
_DELIVER = EventKind.DELIVER
_TIMER_FIRE = EventKind.TIMER_FIRE
_F0 = FirmwareEpoch.F0
_F1_VALUE = int(FirmwareEpoch.F1)
_FIRMWARE_BY_VALUE = {int(e): e for e in FirmwareEpoch}
_VALUE_OF_FIRMWARE = {e: int(e) for e in FirmwareEpoch}
_PROCEED = FencePolicy.PROCEED
_ABORT = FencePolicy.ABORT
# The naive deploy's broadcast message; read-only, so one instance serves
# every case.
_FIRMWARE_MSG = MappingProxyType({"type": "firmware", "version": _F1_VALUE})
# Delay policy of every random case; frozen, so one instance serves them all.
_CASE_DELAY = UniformDelay(1, 40)
# The rest of a random case's fixed design.
_CASE_CRASH_PROB = 0.1
_CASE_HORIZON = 80
_CASE_COLLECTIVES = 3


@dataclass(frozen=True)
class CollectiveSpec:
    cid: int
    time: int
    participants: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.time < 1:
            raise ValueError("collective time must be positive")
        if not self.participants:
            raise ValueError("a collective needs at least one participant")


@dataclass
class CollectiveInstance:
    """What one collective observed: built once, when it runs, and never
    changed. Not frozen: a frozen dataclass sets each field through
    object.__setattr__, which made building one about four times slower."""

    cid: int
    time: int
    participants: tuple[str, ...]
    versions: dict[str, int]      # node -> firmware at execution (live nodes)
    fenced: tuple[str, ...]
    abort_reason: str | None = None

    @property
    def correct(self) -> dict[str, bool]:  # node -> took part, not fenced
        return {**dict.fromkeys(self.fenced, False), **dict.fromkeys(self.versions, True)}

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    def correct_versions(self) -> set[int]:
        return set(self.versions.values())

    @property
    def is_mixed(self) -> bool:
        return not self.aborted and len(self.correct_versions()) >= 2

    def to_json_obj(self) -> dict:
        correct = self.correct
        return {
            "cid": self.cid, "time": self.time,
            "participants": list(self.participants),
            "versions": {k: self.versions[k] for k in sorted(self.versions)},
            "correct": {k: correct[k] for k in sorted(correct)},
            "fenced": list(self.fenced),
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "mixed": self.is_mixed,
        }


class DecisionRegister:
    """Once-writable linearized register holding the committed firmware epoch."""

    def __init__(self, outage: tuple[int, int] | None = None):
        self.committed: FirmwareEpoch | None = None
        self.decision_time: int | None = None
        self.outage = outage  # [lo, hi] window in which reads fail

    def commit(self, epoch: FirmwareEpoch, time: int) -> None:
        if self.committed is not None:
            raise ValueError("decision register is write-once")
        self.committed = epoch
        self.decision_time = time

    def read(self, now: int) -> tuple[bool, FirmwareEpoch | None]:
        if self.outage is not None and self.outage[0] <= now <= self.outage[1]:
            return False, None
        return True, self.committed

    def to_json_obj(self) -> dict:
        return {"committed": None if self.committed is None else int(self.committed),
                "decision_time": self.decision_time}


class FirmwareNode(Component):
    def __init__(self, name: str):
        self.name = name
        self.version = _F0

    def on_event(self, sim: Simulation, event: Event) -> None:
        if event.kind is _DELIVER and event.payload.get("type") == "firmware":
            self.version = _FIRMWARE_BY_VALUE[event.payload["version"]]


class _CollectiveRunner(Component):
    """Executes scheduled collectives and records what each one observed.

    With a register the runner is on the consensus path: every live
    participant observes the register's decision before it participates.
    Without one it runs the naive path. It reads the simulation's crashed
    set and its nodes' fields directly, with no call per participant.
    """

    def __init__(self, register: DecisionRegister | None, fence_policy: FencePolicy):
        self.name = "collective_runner"
        self.register = register
        self.fence_policy = fence_policy
        self.instances: list[CollectiveInstance] = []

    def on_event(self, sim: Simulation, event: Event) -> None:
        payload = event.payload
        if payload.get("type") != "collective":
            return
        participants = payload["participants"]
        consensus = self.register is not None
        # Nothing writes the register while a collective runs, so one read
        # serves every participant.
        readable, decision = self.register.read(sim.now) if consensus else (True, None)
        crashed, nodes, value_of = sim.crashed, sim.components, _VALUE_OF_FIRMWARE
        versions: dict[str, int] = {}
        fenced: list[str] = []
        reason = None
        for name in participants:
            if name in crashed:
                fenced.append(name)
                continue
            node = nodes[name]
            if consensus:
                # Observation before participation is mandatory: the first
                # live participant that cannot read the register aborts.
                if not readable:
                    reason = "register unavailable"
                    break
                # The node adopts the decision read (None: nothing committed).
                if decision is not None and node.version < decision:
                    node.version = decision
            versions[name] = value_of[node.version]
        if reason is None:
            if consensus and fenced:
                if self.fence_policy is _ABORT or not versions:
                    reason = "fenced participants" if versions else "no participants left"
            elif not versions:
                reason = "no live participants"
        self.instances.append(CollectiveInstance(
            payload["cid"], event.time, participants, versions, tuple(fenced), reason))


@dataclass
class DeployReport:
    mode: str
    n: int
    seed: int
    collectives: tuple[CollectiveInstance, ...]
    register: DecisionRegister | None
    trace: Trace

    @property
    def mixed(self) -> list[CollectiveInstance]:
        """Collectives whose correct participants held two or more versions."""
        return [c for c in self.collectives if c.is_mixed]

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode, "n": self.n, "seed": self.seed,
            "register": self.register.to_json_obj() if self.register else None,
            "collectives": [c.to_json_obj() for c in self.collectives],
            "mixed_count": len(self.mixed),
            "trace_hash": self.trace.hash64(),
        }


@lru_cache(maxsize=64)
def _node_names(n: int) -> tuple[str, ...]:
    """Names n0..n{n-1} of an n-node fleet."""
    return tuple(f"n{i}" for i in range(n))


def _build_sim(n: int, delay: DelayPolicy, seed: int) -> Simulation:
    if n < 1:
        raise ConfigError("cluster size must be at least one component")
    return Simulation(delay, seed, components=[FirmwareNode(name) for name in _node_names(n)])


def _schedule_collectives(sim: Simulation, runner: _CollectiveRunner,
                          collectives: Iterable[CollectiveSpec]) -> None:
    sim.register(runner)
    for spec in collectives:
        sim.schedule(spec.time, runner.name, _TIMER_FIRE,
                     {"type": "collective", "cid": spec.cid,
                      "participants": spec.participants})


def run_naive_deploy(n: int, deploy_time: int, collectives: Sequence[CollectiveSpec],
                     *, delay: DelayPolicy, seed: int = 0,
                     crashes: Iterable[tuple[str, int]] = ()) -> DeployReport:
    """Broadcast the new firmware; nodes switch whenever delivery lands."""
    if deploy_time < 0:
        raise ValueError("deploy time must be non-negative")
    sim = _build_sim(n, delay, seed)
    runner = _CollectiveRunner(None, _PROCEED)
    _schedule_collectives(sim, runner, collectives)
    for component, time in crashes:
        sim.inject_crash(component, time)
    # The broadcast leaves the deployer at deploy_time; per-node delivery
    # delay comes from the policy.
    sim.broadcast("deployer", _node_names(n), _FIRMWARE_MSG, at=deploy_time)
    trace = sim.run_until_quiescent()
    return DeployReport(mode="naive", n=n, seed=seed,
                        collectives=tuple(runner.instances), register=None,
                        trace=trace)


def run_consensus_deploy(n: int, collectives: Sequence[CollectiveSpec], *,
                         propose_time: int | None, delay: DelayPolicy,
                         seed: int = 0, crashes: Iterable[tuple[str, int]] = (),
                         fence_policy: FencePolicy = FencePolicy.PROCEED,
                         register_outage: tuple[int, int] | None = None) -> DeployReport:
    """Route the transition through the once-writable decision register.

    With propose_time None no transition is ever proposed and every
    collective runs F0 uniformly.
    """
    sim = _build_sim(n, delay, seed)
    register = DecisionRegister(outage=register_outage)
    runner = _CollectiveRunner(register, fence_policy)
    _schedule_collectives(sim, runner, collectives)
    for component, time in crashes:
        sim.inject_crash(component, time)
    if propose_time is not None:
        # The register linearizes the write at the propose time; model it as
        # a timer on propose_hook so it lands in trace order.
        sim.register(_ProposeHook(register))
        sim.schedule(max(propose_time, 1), "propose_hook", _TIMER_FIRE,
                     {"type": "propose", "version": _F1_VALUE})
    trace = sim.run_until_quiescent()
    return DeployReport(mode="consensus", n=n, seed=seed,
                        collectives=tuple(runner.instances), register=register,
                        trace=trace)


class _ProposeHook(Component):
    def __init__(self, register: DecisionRegister):
        self.name = "propose_hook"
        self.register = register

    def on_event(self, sim: Simulation, event: Event) -> None:
        if event.payload.get("type") == "propose":
            if self.register.committed is None:
                self.register.commit(_FIRMWARE_BY_VALUE[event.payload["version"]], sim.now)


# ---------------------------------------------------------------------------
# Schedule batteries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeployCase:
    """One randomized (or directed) deployment scenario."""

    n: int
    deploy_time: int
    collectives: tuple[CollectiveSpec, ...]
    crashes: tuple[tuple[str, int], ...]
    delay: DelayPolicy
    seed: int


def directed_straddle_case(n: int, *, seed: int = 0) -> DeployCase:
    """Collective timed exactly inside the firmware delivery window."""
    if n < 2:
        raise ValueError("a straddle needs at least two nodes")
    # The first node switches at t=11, the second at t=31; the collective at
    # t=21 sees one of each.
    participants = _node_names(n)[:2]
    delays = {(participants[0], "firmware"): 1, (participants[1], "firmware"): 21}
    policy = AdversarialSchedule(message_delays=delays, default_message_delay=5)
    return DeployCase(
        n=n, deploy_time=10,
        collectives=(CollectiveSpec(cid=0, time=21, participants=participants),),
        crashes=(), delay=policy, seed=seed)


def random_deploy_case(n: int, case_seed: int) -> DeployCase:
    rng = random.Random(case_seed)
    names = _node_names(n)
    deploy_time = rng.randint(1, _CASE_HORIZON // 2)
    collectives = []
    for cid in range(_CASE_COLLECTIVES):
        size = n if n <= 2 else rng.randint(2, n)
        members = tuple(names[i] for i in sorted(rng.sample(range(n), size)))
        collectives.append(CollectiveSpec(cid=cid, time=rng.randint(1, _CASE_HORIZON),
                                          participants=members))
    crashes = crash_schedule(names, rng, _CASE_CRASH_PROB, _CASE_HORIZON)
    return DeployCase(n=n, deploy_time=deploy_time, collectives=tuple(collectives),
                      crashes=tuple(crashes), delay=_CASE_DELAY, seed=case_seed)


def deploy_candidates(n: int, seed: int):
    """Directed straddle first, then an endless stream of random cases."""
    yield directed_straddle_case(n, seed=seed)
    i = 0
    while True:
        yield random_deploy_case(n, derive_seed(seed, i))
        i += 1


def run_case_naive(case: DeployCase) -> DeployReport:
    return run_naive_deploy(case.n, case.deploy_time, case.collectives,
                            delay=case.delay, seed=case.seed, crashes=case.crashes)


def run_case_consensus(case: DeployCase,
                       fence_policy: FencePolicy = FencePolicy.PROCEED) -> DeployReport:
    return run_consensus_deploy(case.n, case.collectives,
                                propose_time=case.deploy_time, delay=case.delay,
                                seed=case.seed, crashes=case.crashes,
                                fence_policy=fence_policy)
