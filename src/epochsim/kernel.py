"""Deterministic seeded discrete-event simulation core.

Virtual time is an integer tick count. Events are totally ordered by
(time, seq), where seq is assigned at scheduling time, so a run is a
single deterministic sequence: re-running with the same seed and the
same setup code reproduces the event list bit for bit. Message delays,
stage durations, and crash-recovery delays are drawn from a pluggable
DelayPolicy; all delays are strictly positive ticks.

Crash semantics: a CRASH event marks the target down and schedules a
RECOVER after a policy-drawn delay. While a component is down, DELIVER,
LOCAL_STEP, and TIMER_FIRE events addressed to it are dropped. Crashing
an already-crashed component is a no-op. The loop sets an event's dropped
flag or note ("already crashed", "not crashed") once, when it processes
the event; the processed Event is then its own trace record.

Payload ownership: schedule and set_timer take ownership of the payload
dict they are given and store it as is, without a copy; the caller must
not mutate it afterwards. send copies its message once, because it adds
the "src" key, so a caller may reuse or mutate its message dict freely.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

VirtualTime = int  # non-negative tick count

DEFAULT_STEP_LIMIT = 10_000_000


class SimulationError(Exception):
    """Base class for kernel-level errors."""


class ConfigError(SimulationError, ValueError):
    """Invalid simulation or policy configuration."""


class SchedulePastError(SimulationError):
    """An event was scheduled before the current virtual time."""


class StepLimitExceeded(SimulationError):
    """The run processed more events than the configured limit (livelock guard)."""


class EventKind(str, Enum):
    DELIVER = "deliver"
    LOCAL_STEP = "local_step"
    CRASH = "crash"
    RECOVER = "recover"
    TIMER_FIRE = "timer_fire"


# Members bound once: reading a global name is about ten times cheaper than
# EventKind.X, a lookup through the enum class, on the per-event path.
_DELIVER = EventKind.DELIVER
_CRASH = EventKind.CRASH
_RECOVER = EventKind.RECOVER
_TIMER_FIRE = EventKind.TIMER_FIRE


@dataclass(slots=True)
class Event:
    """One scheduled event; once processed, also its trace record.

    The loop sets dropped or note once, when it processes the event, and
    never changes it again. Not hashable: payloads are dicts.
    """

    time: VirtualTime
    seq: int
    target: str
    kind: EventKind
    payload: Mapping[str, Any]
    dropped: bool = False
    note: str | None = None

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "time": self.time,
            "seq": self.seq,
            "target": self.target,
            "kind": self.kind.value,
            "payload": dict(self.payload),
        }
        if self.dropped:
            obj["dropped"] = True
        if self.note:
            obj["note"] = self.note
        return obj


def digest64(text: str) -> str:
    """Stable 64-bit hex digest, identical across runs and platforms."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class Trace:
    """Replayable record of one run: every processed event plus final states."""

    seed: int
    records: tuple[Event, ...]
    final_states: Mapping[str, Any]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(r.to_obj(), sort_keys=True, separators=(",", ":"))
            for r in self.records
        )

    def hash64(self) -> str:
        return digest64(self.to_jsonl())


# ---------------------------------------------------------------------------
# Delay policies
# ---------------------------------------------------------------------------


class DelayPolicy(ABC):
    """Source of message delays, stage durations, and recovery delays.

    Every draw must return a strictly positive, finite tick count.
    """

    @abstractmethod
    def message_delay(self, rng: random.Random, src: str, dst: str, msg: Mapping[str, Any]) -> int: ...

    @abstractmethod
    def stage_duration(self, rng: random.Random, component: str, stage: str) -> int: ...

    @abstractmethod
    def recovery_delay(self, rng: random.Random, component: str) -> int: ...


@dataclass(frozen=True)
class FixedDelay(DelayPolicy):
    ticks: int = 1

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ConfigError("delay must be at least one tick")

    def message_delay(self, rng, src, dst, msg):
        return self.ticks

    def stage_duration(self, rng, component, stage):
        return self.ticks

    def recovery_delay(self, rng, component):
        return self.ticks


@dataclass(frozen=True)
class UniformDelay(DelayPolicy):
    lo: int = 1
    hi: int = 3

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ConfigError("uniform delay bounds must satisfy 1 <= lo <= hi")

    # Each draw is rng.randint(lo, hi) without its argument checks:
    # randint(lo, hi) returns exactly lo + rng._randbelow(hi - lo + 1).
    def message_delay(self, rng, src, dst, msg):
        return self.lo + rng._randbelow(self.hi - self.lo + 1)

    def stage_duration(self, rng, component, stage):
        return self.lo + rng._randbelow(self.hi - self.lo + 1)

    def recovery_delay(self, rng, component):
        return self.lo + rng._randbelow(self.hi - self.lo + 1)


@dataclass(frozen=True)
class AdversarialSchedule(DelayPolicy):
    """Explicit per-message and per-stage delays for constructed executions.

    message_delays is keyed by (dst, msg type); stage_durations by
    (component, stage name). Missing keys fall back to the defaults.
    """

    message_delays: Mapping[tuple[str, str], int] = field(default_factory=dict)
    stage_durations: Mapping[tuple[str, str], int] = field(default_factory=dict)
    default_message_delay: int = 1
    default_stage_duration: int = 1
    default_recovery_delay: int = 1

    def __post_init__(self) -> None:
        values = list(self.message_delays.values()) + list(self.stage_durations.values())
        values += [self.default_message_delay, self.default_stage_duration, self.default_recovery_delay]
        if any(v < 1 for v in values):
            raise ConfigError("all scheduled delays must be at least one tick")

    def message_delay(self, rng, src, dst, msg):
        return self.message_delays.get((dst, str(msg.get("type"))), self.default_message_delay)

    def stage_duration(self, rng, component, stage):
        return self.stage_durations.get((component, stage), self.default_stage_duration)

    def recovery_delay(self, rng, component):
        return self.default_recovery_delay


# ---------------------------------------------------------------------------
# Components and the simulation loop
# ---------------------------------------------------------------------------


class Component:
    """Base event handler. Subclasses override the hooks they need."""

    def __init__(self, name: str = "component") -> None:
        self.name = name

    def on_event(self, sim: Simulation, event: Event) -> None:
        pass

    def on_crash(self, sim: Simulation, event: Event) -> None:
        pass

    def on_recover(self, sim: Simulation, event: Event) -> None:
        pass

    def epoch_state(self):
        """Durable epoch state for the trace, or None if not applicable."""
        return None


@dataclass(frozen=True)
class SimConfig:
    n_components: int
    delay_policy: DelayPolicy
    seed: int
    step_limit: int = DEFAULT_STEP_LIMIT

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ConfigError("cluster size must be at least one component")
        if self.step_limit < 1:
            raise ConfigError("step limit must be positive")


class Simulation:
    """Single-threaded deterministic event loop over registered components."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.policy = config.delay_policy
        self.rng = random.Random(config.seed)
        self.now: VirtualTime = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._handlers: dict[str, Component] = {}  # in registration order
        self._crashed: set[str] = set()
        self._records: list[Event] = []

    # -- registry ----------------------------------------------------------

    def register(self, handler: Component) -> None:
        if handler.name in self._handlers:
            raise ConfigError(f"component {handler.name!r} already registered")
        self._handlers[handler.name] = handler

    def handler(self, name: str) -> Component:
        return self._handlers[name]

    def component_names(self) -> list[str]:
        return list(self._handlers)

    def is_crashed(self, name: str) -> bool:
        return name in self._crashed

    # -- scheduling --------------------------------------------------------

    def schedule(self, time: VirtualTime, target: str, kind: EventKind,
                 payload: Mapping[str, Any] | None = None) -> Event:
        """Queue an event; the kernel takes ownership of payload (None is {})."""
        if time < self.now:
            raise SchedulePastError(f"cannot schedule at t={time}, now is t={self.now}")
        if target not in self._handlers:
            raise ConfigError(f"unknown component {target!r}")
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, target, kind, {} if payload is None else payload)
        heapq.heappush(self._queue, (time, seq, ev))
        return ev

    def send(self, src: str, dst: str, msg: Mapping[str, Any]) -> Event:
        """Schedule a message delivery after a policy-drawn positive delay."""
        delay = self.policy.message_delay(self.rng, src, dst, msg)
        if delay < 1:
            raise ConfigError("message delay must be at least one tick")
        payload = dict(msg)
        payload["src"] = src
        return self.schedule(self.now + delay, dst, _DELIVER, payload)

    def set_timer(self, target: str, delay: int, payload: Mapping[str, Any]) -> Event:
        if delay < 1:
            raise ConfigError("timer delay must be at least one tick")
        return self.schedule(self.now + delay, target, _TIMER_FIRE, payload)

    def inject_crash(self, component: str, time: VirtualTime, *,
                     permanent: bool = False) -> Event:
        """Crash at the given tick. Transient crashes recover after a
        policy-drawn delay; permanent ones halt for the rest of the run."""
        payload = {"permanent": True} if permanent else {}
        return self.schedule(time, component, _CRASH, payload)

    # -- main loop ---------------------------------------------------------

    def run_until_quiescent(self) -> Trace:
        queue, handlers, crashed = self._queue, self._handlers, self._crashed
        record = self._records.append
        limit = self.config.step_limit
        pop = heapq.heappop
        crash, recover = _CRASH, _RECOVER
        steps = 0
        while queue:
            steps += 1
            if steps > limit:
                raise StepLimitExceeded(f"exceeded {limit} events; likely livelock")
            ev = pop(queue)[2]
            self.now = ev.time
            target, kind = ev.target, ev.kind
            handler = handlers[target]
            if kind is crash:
                if target in crashed:
                    ev.note = "already crashed"
                else:
                    crashed.add(target)
                    handler.on_crash(self, ev)
                    if not ev.payload.get("permanent"):
                        delay = self.policy.recovery_delay(self.rng, target)
                        self.schedule(self.now + delay, target, recover, {})
            elif kind is recover:
                if target in crashed:
                    crashed.discard(target)
                    handler.on_recover(self, ev)
                else:
                    ev.note = "not crashed"
            elif target in crashed:
                ev.dropped = True
            else:
                handler.on_event(self, ev)
            record(ev)
        final = {}
        for name, handler in handlers.items():
            state = handler.epoch_state()
            if state is not None:
                final[name] = state
        return Trace(seed=self.config.seed, records=tuple(self._records), final_states=final)


def new_simulation(n: int, delay_policy: DelayPolicy, seed: int, *,
                   epoch: int = 1, step_limit: int = DEFAULT_STEP_LIMIT) -> Simulation:
    """Fresh simulation with n persistence components c0..c{n-1}, all idle.

    Components start holding epoch - 1 durably; epoch is the transition
    target a protocol will drive them toward.
    """
    from .persistence import PersistenceProcess

    sim = Simulation(SimConfig(n_components=n, delay_policy=delay_policy,
                               seed=seed, step_limit=step_limit))
    for i in range(n):
        sim.register(PersistenceProcess(f"c{i}", epoch=epoch))
    return sim
