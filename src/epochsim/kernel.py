"""Deterministic seeded discrete-event simulation core.

Virtual time is an integer tick count. Events are totally ordered by
(time, seq), where seq is assigned at scheduling time, so a run is a
single deterministic sequence: re-running with the same seed and the
same setup code reproduces the event list bit for bit. Message delays,
stage durations, and crash-recovery delays are drawn from a pluggable
DelayPolicy; all delays are strictly positive ticks.

The queue is a list of events per pending tick, plus a heap of the
distinct pending ticks. seq only grows, so appending keeps each list in
seq order, and an event costs one append whatever the number pending;
only a tick's first event pushes onto the heap. The loop pops the
earliest tick, takes its list out and runs it in order. An event
scheduled for the tick being run lands in a fresh list for that tick,
which runs next, so the (time, seq) order is the same as one heap entry
per event would give. A run that raised (StepLimitExceeded, or an error
in a handler) may have lost the rest of its tick and cannot be resumed.

Delay draws: a DelayPolicy has one method, draws(rng), which returns a
run's three draw callables; a Simulation calls it once, at construction,
and sends, crashes and components call those (sim.message_delay,
sim.stage_duration, sim.recovery_delay). A UniformDelay with hi <= 255
takes its values from whole blocks of Mersenne Twister words, one C-level
pass per block, and above that makes one rng.randint(lo, hi) call per
draw; the values are exactly those successive rng.randint(lo, hi) calls
would return, in the same order. The rng may run up to one block ahead of
the last value used, so sim.rng's position after a run is unspecified;
read delays only through the bound callables.

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
from functools import cached_property, lru_cache
from typing import Any, Callable, Iterator, Mapping, Sequence

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
    def draws(self, rng: random.Random) -> tuple[Callable[..., int], Callable[..., int],
                                                 Callable[..., int]]:
        """One run's draw callables, bound to rng: message_delay(src, dst,
        msg), stage_duration(component, stage) and recovery_delay(component).

        A Simulation calls this once and then draws only through the three
        callables, so a policy may pull from rng ahead of its values.
        """


@dataclass(frozen=True)
class FixedDelay(DelayPolicy):
    ticks: int = 1

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ConfigError("delay must be at least one tick")

    def draws(self, rng):
        ticks = self.ticks

        def fixed(_a, _b=None, _c=None):  # all three signatures; arguments unused
            return ticks

        return fixed, fixed, fixed


# Block draws for UniformDelay. randint(lo, hi) is lo + _randbelow(span),
# span = hi - lo + 1, and _randbelow takes r = getrandbits(k) with
# k = span.bit_length(), retrying while r >= span. For k <= 32, getrandbits(k)
# is the top k bits of one 32-bit MT word, one word per try. getrandbits(32*n)
# returns n successive words, the first least significant, so the bytes at
# [3::4] of its little-endian form are the words' top bytes in draw order.
# With hi <= 255, k <= 8 and every value fits a byte: one translate maps each
# top byte to lo + (byte >> (8 - k)) and deletes the bytes whose top k bits
# are >= span, which is the retry loop.
_BYTE_MAX = 255
_FIRST_BLOCK_WORDS = 16
_MAX_BLOCK_WORDS = 2048


def _block_values(rng: random.Random, table: bytes, delete: bytes) -> Iterator[int]:
    """Successive randint(lo, hi) values, drawn from rng in blocks of words."""
    getrandbits = rng.getrandbits
    words = _FIRST_BLOCK_WORDS
    while True:
        yield from getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(
            table, delete)
        if words < _MAX_BLOCK_WORDS:
            words *= 2


@dataclass(frozen=True)
class UniformDelay(DelayPolicy):
    lo: int = 1
    hi: int = 3

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ConfigError("uniform delay bounds must satisfy 1 <= lo <= hi")

    @cached_property  # per policy, not per run: a run's set-up is on the deploy path
    def _byte_tables(self) -> tuple[bytes, bytes]:
        """translate's table and delete arguments: top byte -> randint(lo, hi)."""
        span = self.hi - self.lo + 1
        shift = 8 - span.bit_length()
        table = bytes(self.lo + (b >> shift) if (b >> shift) < span else 0
                      for b in range(256))
        delete = bytes(b for b in range(256) if (b >> shift) >= span)
        return table, delete

    def draws(self, rng):
        if self.hi > _BYTE_MAX:
            lo, hi, randint = self.lo, self.hi, rng.randint

            def draw():
                return randint(lo, hi)
        else:
            table, delete = self._byte_tables
            # The generator is lazy: a run that draws nothing pulls no words.
            draw = _block_values(rng, table, delete).__next__

        def any_draw(_a, _b=None, _c=None):  # all three signatures; arguments unused
            return draw()

        return any_draw, any_draw, any_draw


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

    def draws(self, rng):
        def message_delay(src, dst, msg):
            return self.message_delays.get((dst, str(msg.get("type"))), self.default_message_delay)

        def stage_duration(component, stage):
            return self.stage_durations.get((component, stage), self.default_stage_duration)

        def recovery_delay(component):
            return self.default_recovery_delay

        return message_delay, stage_duration, recovery_delay


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


class Simulation:
    """Single-threaded deterministic event loop over registered components."""

    def __init__(self, delay_policy: DelayPolicy, seed: int, *,
                 step_limit: int = DEFAULT_STEP_LIMIT,
                 components: Sequence[Component] = ()):
        """components are registered at once, in order; names must be distinct."""
        if step_limit < 1:
            raise ConfigError("step limit must be positive")
        self.seed = seed
        self.step_limit = step_limit
        self.rng = random.Random(seed)
        # Bound once: every delay of the run comes from these three callables.
        self.message_delay, self.stage_duration, self.recovery_delay = (
            delay_policy.draws(self.rng))
        self.now: VirtualTime = 0
        # Pending events by tick, each list in seq order, and a heap of
        # the ticks that have a list.
        self._pending: dict[VirtualTime, list[Event]] = {}
        self._ticks: list[VirtualTime] = []
        self._seq = 0
        # In registration order.
        self._handlers: dict[str, Component] = {c.name: c for c in components}
        if len(self._handlers) != len(components):
            raise ConfigError("component names must be distinct")
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
        bucket = self._pending.get(time)
        if bucket is None:
            self._pending[time] = [ev]
            heapq.heappush(self._ticks, time)
        else:
            bucket.append(ev)
        return ev

    def send(self, src: str, dst: str, msg: Mapping[str, Any]) -> Event:
        """Schedule a message delivery after a policy-drawn positive delay."""
        delay = self.message_delay(src, dst, msg)
        if delay < 1:
            raise ConfigError("message delay must be at least one tick")
        if dst not in self._handlers:
            raise ConfigError(f"unknown component {dst!r}")
        payload = dict(msg)
        payload["src"] = src
        # schedule's steps inline: a delivery is never in the past.
        time = self.now + delay
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, dst, _DELIVER, payload)
        bucket = self._pending.get(time)
        if bucket is None:
            self._pending[time] = [ev]
            heapq.heappush(self._ticks, time)
        else:
            bucket.append(ev)
        return ev

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
        pending, ticks = self._pending, self._ticks
        handlers, crashed = self._handlers, self._crashed
        record = self._records.append
        limit = self.step_limit
        recovery_delay = self.recovery_delay
        pop = heapq.heappop
        crash, recover = _CRASH, _RECOVER
        steps = 0
        while ticks:
            self.now = now = pop(ticks)
            # Events scheduled for now from here on go to a fresh list.
            for ev in pending.pop(now):
                steps += 1
                if steps > limit:
                    raise StepLimitExceeded(f"exceeded {limit} events; likely livelock")
                target, kind = ev.target, ev.kind
                handler = handlers[target]
                if kind is crash:
                    if target in crashed:
                        ev.note = "already crashed"
                    else:
                        crashed.add(target)
                        handler.on_crash(self, ev)
                        if not ev.payload.get("permanent"):
                            delay = recovery_delay(target)
                            self.schedule(now + delay, target, recover, {})
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
        return Trace(seed=self.seed, records=tuple(self._records), final_states=final)


def new_simulation(n: int, delay_policy: DelayPolicy, seed: int, *,
                   epoch: int = 1) -> Simulation:
    """Fresh simulation with n persistence components c0..c{n-1}, all idle.

    Components start holding epoch - 1 durably; epoch is the transition
    target a protocol will drive them toward.
    """
    from .persistence import PersistenceProcess

    if n < 1:
        raise ConfigError("cluster size must be at least one component")
    return Simulation(delay_policy, seed, components=[
        PersistenceProcess(name, epoch) for name in _component_names(n)])


@lru_cache(maxsize=64)
def _component_names(n: int) -> tuple[str, ...]:
    """Names c0..c{n-1} of an n-component cluster."""
    return tuple(f"c{i}" for i in range(n))
