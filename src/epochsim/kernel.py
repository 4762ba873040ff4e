"""Deterministic seeded discrete-event simulation core.

Virtual time is an integer tick count. Events are totally ordered by
(time, seq), where seq is assigned at scheduling time, so a run is a
single deterministic sequence: re-running with the same seed and the
same setup code reproduces the event list bit for bit. Message delays,
stage durations, and crash-recovery delays are drawn from a pluggable
DelayPolicy; all delays are strictly positive ticks. The kernel records
events only: a run's Trace is its seed and its processed events, and what
a component holds when the run ends is read off the component itself.

The queue is a list of events per pending tick, plus a heap of the
distinct pending ticks. seq only grows, so appending keeps each list in
seq order, and an event costs one append whatever the number pending;
only a tick's first event pushes onto the heap. The loop pops the
earliest tick, takes its list out and runs it in order. An event
scheduled for the tick being run lands in a fresh list for that tick,
which runs next, so the (time, seq) order is the same as one heap entry
per event would give. A run that raised (StepLimitExceeded, or an error
in a handler) may have lost the rest of its tick and cannot be resumed.

Delay draws: a DelayPolicy has one method, draws(new_rng), which returns a
run's three draw callables; a Simulation calls it once, at construction.
Draws are batched: message_delays(src, dsts, msg) gives one delay per
destination and stage_durations(component, stages) one duration per stage,
in order, each value the one a single draw would give at that point of the
stream; recovery_delay(component) gives one delay. A policy that reads
random numbers calls new_rng() on its first draw, so a run that makes no
draw, and every FixedDelay and AdversarialSchedule run, seeds no Mersenne
Twister. A UniformDelay (hi <= 255) takes its values from whole blocks of MT
words, one C-level pass per block; the values are exactly those successive
Random(seed).randint(lo, hi) calls would return, in the same order. The
generator may run up to one block ahead of the last value used, and only
the policy holds it.

Crash semantics: a CRASH event marks the target down and schedules a
RECOVER after a policy-drawn delay. While a component is down, DELIVER,
LOCAL_STEP, and TIMER_FIRE events addressed to it are dropped. Crashing
an already-crashed component is a no-op. The loop sets an event's dropped
flag or note ("already crashed", "not crashed") once, when it processes
the event; the processed Event is then its own trace record. Only the
loop writes the set of crashed components; Simulation.crashed hands out
that live set for reading.

Payload ownership: schedule and set_timer take ownership of the payload
dict they are given and store it as is, without a copy; the caller must
not mutate it afterwards. send and broadcast copy their message once,
because they add the "src" key, so a caller may reuse or mutate its
message dict freely. Every event of one broadcast shares that one copy,
and a processed event is its own trace record, so a payload is read-only
once queued: no handler may write into the payload it is handed.
"""

from __future__ import annotations

import hashlib
import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from types import MappingProxyType
from typing import AbstractSet, Any, Callable, Mapping, Sequence

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
    """Replayable record of one run: every processed event, in order.

    Where a run ended is the components' own state, not the trace's.
    """

    seed: int
    records: tuple[Event, ...]

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
    def draws(self, new_rng: Callable[[], random.Random]) -> tuple[
            Callable[..., Sequence[int]], Callable[..., Sequence[int]], Callable[[str], int]]:
        """One run's draw callables: message_delays(src, dsts, msg), exactly
        one delay per destination; stage_durations(component, stages),
        exactly one duration per stage; and recovery_delay(component).

        new_rng() builds the run's generator; a policy that draws random
        numbers calls it once, on its first draw, and may pull from the
        generator ahead of its values.
        """


# A FixedDelay or UniformDelay delay does not depend on what it is drawn
# for, so one function serves as both message_delays(src, dsts, msg) and
# stage_durations(component, stages): take(_key, items, _msg=None) returns
# the stream's next len(items) delays.
_Take = Callable[..., Sequence[int]]


def _keyless(take: _Take) -> tuple[_Take, _Take, Callable[[str], int]]:
    """The three draw callables over one stream's take."""

    def recovery_delay(component):
        return take(component, (component,))[0]

    return take, take, recovery_delay


@dataclass(frozen=True)
class FixedDelay(DelayPolicy):
    ticks: int = 1

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ConfigError("delay must be at least one tick")

    def draws(self, new_rng):
        one = (self.ticks,)

        def take(_key, items, _msg=None):
            return one * len(items)

        return _keyless(take)


# Block draws for UniformDelay. randint(lo, hi) is lo + _randbelow(span),
# span = hi - lo + 1, and _randbelow takes r = getrandbits(k) with
# k = span.bit_length(), retrying while r >= span. For k <= 32, getrandbits(k)
# is the top k bits of one 32-bit MT word, one word per try. getrandbits(32*n)
# returns n successive words, the first least significant, so the bytes at
# [3::4] of its little-endian form are the words' top bytes in draw order.
# UniformDelay refuses hi > 255, so k <= 8 and every value fits a byte: one
# translate maps each top byte to lo + (byte >> (8 - k)) and deletes the
# bytes whose top k bits are >= span, which is the retry loop. Values come
# from the word stream in order however it is cut into blocks, so block
# sizes change only how far ahead the generator runs.
_BYTE_MAX = 255
_FIRST_BLOCK_WORDS = 16
_MAX_BLOCK_WORDS = 2048


def _block_values(new_rng: Callable[[], random.Random], table: bytes,
                  delete: bytes) -> _Take:
    """take: the next randint(lo, hi) values, drawn in blocks of words.

    The generator is built on the first take, so a run that draws nothing
    seeds nothing.
    """
    buffered = b""
    used = size = 0
    words = _FIRST_BLOCK_WORDS
    getrandbits = None

    def refill(k):
        """Draw blocks until k values are buffered past the used ones."""
        nonlocal buffered, used, size, words, getrandbits
        if getrandbits is None:
            getrandbits = new_rng().getrandbits
        buffered = buffered[used:]
        while len(buffered) < k:
            buffered += getrandbits(32 * words).to_bytes(4 * words, "little")[3::4] \
                .translate(table, delete)
            if words < _MAX_BLOCK_WORDS:
                words *= 2
        used, size = 0, len(buffered)

    def take(_key, items, _msg=None):
        nonlocal used
        end = used + len(items)
        if end > size:
            refill(len(items))
            end = len(items)
        values = buffered[used:end]
        used = end
        return values

    return take


@dataclass(frozen=True)
class UniformDelay(DelayPolicy):
    lo: int = 1
    hi: int = 3

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ConfigError("uniform delay bounds must satisfy 1 <= lo <= hi")
        if self.hi > _BYTE_MAX:
            raise ConfigError(f"uniform delay hi must be at most {_BYTE_MAX}")

    @cached_property  # per policy, not per run: a run's set-up is on the deploy path
    def _byte_tables(self) -> tuple[bytes, bytes]:
        """translate's table and delete arguments: top byte -> randint(lo, hi)."""
        span = self.hi - self.lo + 1
        shift = 8 - span.bit_length()
        table = bytes(self.lo + (b >> shift) if (b >> shift) < span else 0
                      for b in range(256))
        delete = bytes(b for b in range(256) if (b >> shift) >= span)
        return table, delete

    def draws(self, new_rng):
        return _keyless(_block_values(new_rng, *self._byte_tables))


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

    def draws(self, new_rng):
        by_message, by_stage = self.message_delays.get, self.stage_durations.get
        message_default, stage_default = self.default_message_delay, self.default_stage_duration

        def message_delays(src, dsts, msg):
            mtype = str(msg.get("type"))
            return [by_message((dst, mtype), message_default) for dst in dsts]

        def stage_durations(component, stages):
            return [by_stage((component, stage), stage_default) for stage in stages]

        def recovery_delay(component):
            return self.default_recovery_delay

        return message_delays, stage_durations, recovery_delay


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
        # Bound once: every delay of the run comes from these three callables,
        # and the generator is seeded on the first draw that needs it.
        self.message_delays, self.stage_durations, self.recovery_delay = (
            delay_policy.draws(lambda: random.Random(seed)))
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

    @property
    def components(self) -> Mapping[str, Component]:
        """Registered components by name, in registration order; read-only."""
        return MappingProxyType(self._handlers)

    @property
    def crashed(self) -> AbstractSet[str]:
        """Names of the components down now.

        The loop's own live set, returned without a copy so a collective
        reads it at no cost: callers must not mutate it. Only the loop
        writes it, on CRASH and RECOVER events.
        """
        return self._crashed

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
            heappush(self._ticks, time)
        else:
            bucket.append(ev)
        return ev

    def send(self, src: str, dst: str, msg: Mapping[str, Any]) -> Event:
        """Schedule a message delivery after a policy-drawn positive delay."""
        return self.broadcast(src, (dst,), msg)[0]

    def broadcast(self, src: str, dsts: Sequence[str], msg: Mapping[str, Any], *,
                  at: VirtualTime | None = None) -> list[Event]:
        """Send msg from src to each of dsts, leaving at tick `at` (default now).

        The same events, seqs and delays as one send per destination in
        order, but the delays are one batched draw and every event shares
        one payload: msg copied once, with "src" added. A draw that does not
        give exactly one delay per destination raises ConfigError before
        anything is queued. Each destination and delay is checked as its
        event is queued, so a bad one fails after the ones before it were
        queued, as a loop of sends would.
        """
        if at is None:
            at = self.now
        elif at < self.now:
            raise SchedulePastError(f"cannot send at t={at}, now is t={self.now}")
        handlers = self._handlers
        payload = dict(msg)
        payload["src"] = src
        # schedule's steps inline: a delivery is never in the past.
        pending, ticks = self._pending, self._ticks
        delays = self.message_delays(src, dsts, msg)
        if len(delays) != len(dsts):
            raise ConfigError(
                f"delay policy gave {len(delays)} delays for {len(dsts)} destinations")
        seq = self._seq
        events = []
        try:
            for dst, delay in zip(dsts, delays):
                if delay < 1:
                    raise ConfigError("message delay must be at least one tick")
                if dst not in handlers:
                    raise ConfigError(f"unknown component {dst!r}")
                time = at + delay
                seq += 1
                ev = Event(time, seq, dst, _DELIVER, payload)
                bucket = pending.get(time)
                if bucket is None:
                    pending[time] = [ev]
                    heappush(ticks, time)
                else:
                    bucket.append(ev)
                events.append(ev)
        finally:
            self._seq = seq  # the queued events keep their seqs
        return events

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
        pop = heappop
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
        return Trace(seed=self.seed, records=tuple(self._records))


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
