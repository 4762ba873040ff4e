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

from .kernel import (Component, DelayPolicy, Event, EventKind, SimConfig,
                     Simulation, Trace, UniformDelay)
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
_PROCEED = FencePolicy.PROCEED
_ABORT = FencePolicy.ABORT
# The message each node's broadcast delay is drawn for; read-only, so one
# instance serves every draw.
_FIRMWARE_MSG = MappingProxyType({"type": "firmware"})
# Delay policy of every random case; frozen, so one instance serves them all.
_CASE_DELAY = UniformDelay(1, 40)


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


@dataclass(frozen=True)
class CollectiveInstance:
    cid: int
    time: int
    participants: tuple[str, ...]
    versions: dict[str, int]      # node -> firmware at execution (live nodes)
    correct: dict[str, bool]      # node -> was alive and unfenced
    fenced: tuple[str, ...]
    aborted: bool
    abort_reason: str | None = None

    def correct_versions(self) -> set[int]:
        return {v for node, v in self.versions.items() if self.correct.get(node)}

    @property
    def is_mixed(self) -> bool:
        return not self.aborted and len(self.correct_versions()) >= 2

    def to_json_obj(self) -> dict:
        return {
            "cid": self.cid, "time": self.time,
            "participants": list(self.participants),
            "versions": {k: self.versions[k] for k in sorted(self.versions)},
            "correct": {k: self.correct[k] for k in sorted(self.correct)},
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
        self.observed_decision = False

    def on_event(self, sim: Simulation, event: Event) -> None:
        if event.kind is _DELIVER and event.payload.get("type") == "firmware":
            self.version = _FIRMWARE_BY_VALUE[event.payload["version"]]

    def observe(self, decision: FirmwareEpoch | None) -> None:
        """Adopt a decision read from the register (None: nothing committed)."""
        if decision is not None and self.version < decision:
            self.version = decision
        self.observed_decision = True


class _CollectiveRunner(Component):
    """Executes scheduled collectives and records what each one observed."""

    def __init__(self, mode: str, register: DecisionRegister | None,
                 fence_policy: FencePolicy):
        self.name = "collective_runner"
        self.mode = mode
        self.register = register
        self.fence_policy = fence_policy
        self.instances: list[CollectiveInstance] = []

    def on_event(self, sim: Simulation, event: Event) -> None:
        payload = event.payload
        if payload.get("type") != "collective":
            return
        participants = tuple(payload["participants"])
        consensus = self.mode == "consensus"
        # Nothing writes the register while a collective runs, so one read
        # serves every participant.
        readable, decision = self.register.read(sim.now) if consensus else (True, None)
        is_crashed, handler = sim.is_crashed, sim.handler
        versions: dict[str, int] = {}
        correct: dict[str, bool] = {}
        fenced: list[str] = []
        reason = None
        for node_name in participants:
            if is_crashed(node_name):
                correct[node_name] = False
                fenced.append(node_name)
                continue
            node = handler(node_name)
            if consensus:
                # Observation before participation is mandatory: the first
                # live participant that cannot read the register aborts.
                if not readable:
                    reason = "register unavailable"
                    break
                node.observe(decision)
            versions[node_name] = int(node.version)
            correct[node_name] = True
        if reason is None:
            if consensus and fenced:
                if self.fence_policy is _ABORT or not versions:
                    reason = "fenced participants" if versions else "no participants left"
            elif not versions:
                reason = "no live participants"
        self.instances.append(CollectiveInstance(
            payload["cid"], event.time, participants, versions, correct,
            tuple(fenced), reason is not None, reason))


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
        return detect_mixed(self)

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode, "n": self.n, "seed": self.seed,
            "register": self.register.to_json_obj() if self.register else None,
            "collectives": [c.to_json_obj() for c in self.collectives],
            "mixed_count": len(self.mixed),
            "trace_hash": self.trace.hash64(),
        }


def detect_mixed(report: DeployReport) -> list[CollectiveInstance]:
    """Collectives whose correct participants held two or more versions."""
    return [c for c in report.collectives if c.is_mixed]


@lru_cache(maxsize=64)
def _node_names(n: int) -> tuple[str, ...]:
    """Names n0..n{n-1} of an n-node fleet."""
    return tuple(f"n{i}" for i in range(n))


def _build_sim(n: int, delay: DelayPolicy, seed: int) -> tuple[Simulation, list[FirmwareNode]]:
    sim = Simulation(SimConfig(n_components=n, delay_policy=delay, seed=seed))
    nodes = [FirmwareNode(name) for name in _node_names(n)]
    for node in nodes:
        sim.register(node)
    return sim, nodes


def _schedule_collectives(sim: Simulation, runner: _CollectiveRunner,
                          collectives: Iterable[CollectiveSpec]) -> None:
    sim.register(runner)
    for spec in collectives:
        sim.schedule(spec.time, runner.name, _TIMER_FIRE,
                     {"type": "collective", "cid": spec.cid,
                      "participants": list(spec.participants)})


def run_naive_deploy(n: int, deploy_time: int, collectives: Sequence[CollectiveSpec],
                     *, delay: DelayPolicy | None = None, seed: int = 0,
                     crashes: Iterable[tuple[str, int]] = ()) -> DeployReport:
    """Broadcast the new firmware; nodes switch whenever delivery lands."""
    if deploy_time < 0:
        raise ValueError("deploy time must be non-negative")
    policy = delay or UniformDelay(1, 20)
    sim, nodes = _build_sim(n, policy, seed)
    runner = _CollectiveRunner("naive", None, _PROCEED)
    _schedule_collectives(sim, runner, collectives)
    for component, time in crashes:
        sim.inject_crash(component, time)
    schedule, message_delay, rng = sim.schedule, policy.message_delay, sim.rng
    for node in nodes:
        # The broadcast leaves the deployer at deploy_time; per-node delivery
        # delay comes from the policy.
        name = node.name
        delay_ticks = message_delay(rng, "deployer", name, _FIRMWARE_MSG)
        schedule(deploy_time + delay_ticks, name, _DELIVER,
                 {"type": "firmware", "version": _F1_VALUE, "src": "deployer"})
    trace = sim.run_until_quiescent()
    return DeployReport(mode="naive", n=n, seed=seed,
                        collectives=tuple(runner.instances), register=None,
                        trace=trace)


def run_consensus_deploy(n: int, collectives: Sequence[CollectiveSpec], *,
                         propose_time: int | None, delay: DelayPolicy | None = None,
                         seed: int = 0, crashes: Iterable[tuple[str, int]] = (),
                         fence_policy: FencePolicy = FencePolicy.PROCEED,
                         register_outage: tuple[int, int] | None = None) -> DeployReport:
    """Route the transition through the once-writable decision register.

    With propose_time None no transition is ever proposed and every
    collective runs F0 uniformly.
    """
    policy = delay or UniformDelay(1, 20)
    sim, nodes = _build_sim(n, policy, seed)
    register = DecisionRegister(outage=register_outage)
    runner = _CollectiveRunner("consensus", register, fence_policy)
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
    from .kernel import AdversarialSchedule

    if n < 2:
        raise ValueError("a straddle needs at least two nodes")
    # Node n0 switches at t=11, node n1 at t=31; the collective at t=21 sees
    # one of each.
    delays = {("n0", "firmware"): 1, ("n1", "firmware"): 21}
    policy = AdversarialSchedule(message_delays=delays, default_message_delay=5)
    participants = tuple(f"n{i}" for i in range(min(n, 2)))
    return DeployCase(
        n=n, deploy_time=10,
        collectives=(CollectiveSpec(cid=0, time=21, participants=participants),),
        crashes=(), delay=policy, seed=seed)


def random_deploy_case(n: int, case_seed: int, *, crash_prob: float = 0.1,
                       horizon: int = 80, n_collectives: int = 3) -> DeployCase:
    rng = random.Random(case_seed)
    names = _node_names(n)
    deploy_time = rng.randint(1, horizon // 2)
    collectives = []
    for cid in range(n_collectives):
        size = n if n <= 2 else rng.randint(2, n)
        members = tuple(names[i] for i in sorted(rng.sample(range(n), size)))
        collectives.append(CollectiveSpec(cid=cid, time=rng.randint(1, horizon),
                                          participants=members))
    crashes = crash_schedule(names, rng, crash_prob, horizon)
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
