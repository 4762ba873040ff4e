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
per event would give. The step limit counts a tick's events at once, when
the loop takes its list out: a tick that would pass the limit runs only
its events within it and raises StepLimitExceeded, so exactly step_limit
events run. schedule is the one queue step: send, broadcast,
set_timer, inject_crash and the loop's RECOVER all queue through it, and
it builds each Event in place, storing its seven fields without the
dataclass's __init__, so it equals Event(time, seq, target, kind,
payload). A tick's list joins the records in one step, once all of it
has run. A run that raised (StepLimitExceeded, or an error in a handler)
may have lost the rest of its tick, has not recorded that tick, and
cannot be resumed.

Delay draws: a DelayPolicy has one method, draws(seed), which returns a
run's three draw callables; a Simulation calls it once, at construction,
with its seed. Draws are batched: message_delays(src, dsts, msg) gives one
delay per destination and stage_durations(component, stages) one duration
per stage, in order, each value the one a single draw would give at that
point of the stream; recovery_delay(component) gives one delay. A policy
that reads random numbers builds Random(seed) on its first draw, so a run
that makes no draw, and every FixedDelay and AdversarialSchedule run, seeds
no Mersenne Twister. A UniformDelay (hi <= 255) takes its values from whole
blocks of MT words, one C-level pass per block; the values are exactly
those successive Random(seed).randint(lo, hi) calls would return, in the
same order. The values are buffered in a stream that owns its seed: runs of
that seed read it, each from value 0 with its own cursor, and a run of any
other seed is refused with ConfigError. A lone Simulation is its stream's
only reader, and a battery or deploy case builds one stream, for its seed,
that all of its simulations read, so the generator is seeded once per case,
by the first run that reads past the buffer, and each value is drawn once.
The stream holds one byte per value drawn. The generator may run up to one
block ahead of the last value read, and only the stream holds it.

Crash semantics: a CRASH event marks the target down and schedules a
RECOVER after a policy-drawn delay. While a component is down, DELIVER,
LOCAL_STEP, and TIMER_FIRE events addressed to it are dropped. Crashing
an already-crashed component is a no-op. The loop sets an event's dropped
flag or note ("already crashed", "not crashed") once, when it processes
the event; the processed Event is then its own trace record. Only the
loop writes the set of crashed components; Simulation.crashed hands out
that live set for reading, and Simulation.components, built once, is a
live read-only view of the registry.

Shared facts: other modules import the kernel's EventKind member aliases,
and name every cluster with _cluster_names, the one refusal of an empty
cluster.

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
from typing import AbstractSet, Any, Callable, Iterable, Mapping, Sequence

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


# Members bound once, for every module's per-event path: reading a global
# name is about ten times cheaper than EventKind.X, a lookup through the enum.
_DELIVER = EventKind.DELIVER
_LOCAL_STEP = EventKind.LOCAL_STEP
_CRASH = EventKind.CRASH
_RECOVER = EventKind.RECOVER
_TIMER_FIRE = EventKind.TIMER_FIRE


@dataclass(slots=True)
class Event:
    """One scheduled event; once processed, also its trace record.

    The loop sets dropped or note once, when it processes the event, and
    never changes it again. Not hashable: payloads are dicts.

    Simulation.schedule, the one queue step, builds every queued event in
    place, without __init__: a field added here must be set there
    (tests/test_kernel.py compares each queue path's event with Event(...)).
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


# _new(Event) and seven slot stores cost about 2/3 of Event(...)'s __init__.
_new = object.__new__


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
    def draws(self, seed: int) -> tuple[
            Callable[..., Sequence[int]], Callable[..., Sequence[int]], Callable[[str], int]]:
        """One run's draw callables: message_delays(src, dsts, msg), exactly
        one delay per destination; stage_durations(component, stages),
        exactly one duration per stage; and recovery_delay(component).

        seed is the run's: a policy that draws random numbers builds
        Random(seed) on its first draw and may pull ahead of its values,
        and one that holds a stream of one seed refuses any other seed.
        """

    def _shared(self, seed: int) -> DelayPolicy:
        """The policy one case builds once for its seed and hands to all of
        its runs of that seed: each draws what it would draw from this
        policy, and a random stream, which refuses any other seed, is shared.
        The default is the policy itself, so each run draws on its own."""
        return self


def _check_ticks(values: Iterable[Any]) -> None:
    """Refuse a tick value that is not exactly an int: a float, a bool or a
    numpy integer is not a tick count."""
    for value in values:
        if type(value) is not int:
            raise ConfigError(f"ticks must be int, got {value!r}")


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
        _check_ticks((self.ticks,))
        if self.ticks < 1:
            raise ConfigError("delay must be at least one tick")

    def draws(self, seed):
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


class _UniformStream(DelayPolicy):
    """The values of a UniformDelay for one seed, which the stream owns,
    buffered for every run of that seed.

    Each draws(seed) is one reader, starting at value 0 with its own
    cursor; a run of any other seed is refused with ConfigError. The first
    reader to run past the buffer seeds Random(self.seed); blocks are then
    appended to the buffer in place, so no value is drawn twice and the
    buffer is never copied. It holds one byte per value.
    """

    def __init__(self, seed: int, table: bytes, delete: bytes) -> None:
        self.seed = seed
        self.values = bytearray()
        self._table, self._delete = table, delete
        self._words = _FIRST_BLOCK_WORDS
        self._getrandbits: Callable[[int], int] | None = None

    def fill(self, k: int) -> int:
        """Draw blocks until at least k values are buffered; how many are."""
        values = self.values
        if len(values) < k:
            if self._getrandbits is None:
                self._getrandbits = random.Random(self.seed).getrandbits
            getrandbits, table, delete = self._getrandbits, self._table, self._delete
            words = self._words
            while len(values) < k:
                values += getrandbits(32 * words).to_bytes(4 * words, "little")[3::4] \
                    .translate(table, delete)
                if words < _MAX_BLOCK_WORDS:
                    words *= 2
            self._words = words
        return len(values)

    def draws(self, seed):
        if seed != self.seed:
            raise ConfigError(f"delay stream of seed {self.seed} refuses a run of seed {seed}")
        return _keyless(_block_values(self))


def _block_values(stream: _UniformStream) -> _Take:
    """take: stream's values from the first, the next len(items) per call.

    The stream seeds Random(stream.seed) only if this reader is the first
    to need a value it has not drawn, so a run that draws nothing seeds nothing.
    """
    values, fill = stream.values, stream.fill
    used = size = 0

    def take(_key, items, _msg=None):
        nonlocal used, size
        end = used + len(items)
        if end > size:
            size = fill(end)
        out = values[used:end]
        used = end
        return out

    return take


@dataclass(frozen=True)
class UniformDelay(DelayPolicy):
    lo: int = 1
    hi: int = 3

    def __post_init__(self) -> None:
        _check_ticks((self.lo, self.hi))
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

    def draws(self, seed):
        return self._shared(seed).draws(seed)

    def _shared(self, seed: int) -> _UniformStream:
        return _UniformStream(seed, *self._byte_tables)


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
        _check_ticks(values)
        if any(v < 1 for v in values):
            raise ConfigError("all scheduled delays must be at least one tick")

    def draws(self, seed):
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
            delay_policy.draws(seed))
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
        # Registered components by name, in registration order; a live read-only view.
        self.components: Mapping[str, Component] = MappingProxyType(self._handlers)
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
        """Queue an event; the kernel takes ownership of payload (None is {}).

        The one queue step: every event the kernel queues is built here.
        time is not type-checked, as a per-event test would cost about 1% of
        a battery run; the kernel's callers pass ticks built from checked ones.
        """
        if time < self.now:
            raise SchedulePastError(f"cannot schedule at t={time}, now is t={self.now}")
        if target not in self._handlers:
            raise ConfigError(f"unknown component {target!r}")
        self._seq = seq = self._seq + 1
        ev = _new(Event)  # built in place: Event(...) without its __init__ call
        ev.time = time
        ev.seq = seq
        ev.target = target
        ev.kind = kind
        ev.payload = {} if payload is None else payload
        ev.dropped = False
        ev.note = None
        bucket = self._pending.get(time)
        if bucket is None:
            self._pending[time] = [ev]
            heappush(self._ticks, time)
        else:
            bucket.append(ev)
        return ev

    def send(self, src: str, dst: str, msg: Mapping[str, Any]) -> Event:
        """Schedule a message delivery after a policy-drawn positive delay.

        The event a one-destination broadcast would queue, with its checks
        in the same order: msg copied once with "src" added, the delay drawn
        from the run's stream, which serves the run's seed and no other, the
        draw's length and the delay checked; then schedule checks the
        destination and queues the event.
        """
        payload = dict(msg)
        payload["src"] = src
        delays = self.message_delays(src, (dst,), msg)
        if len(delays) != 1:
            raise ConfigError(f"delay policy gave {len(delays)} delays for 1 destinations")
        delay = delays[0]
        if delay < 1:
            raise ConfigError("message delay must be at least one tick")
        return self.schedule(self.now + delay, dst, _DELIVER, payload)

    def broadcast(self, src: str, dsts: Sequence[str], msg: Mapping[str, Any], *,
                  at: VirtualTime | None = None) -> list[Event]:
        """Send msg from src to each of dsts, leaving at tick `at` (default now;
        a given `at` must be an int).

        The same events, seqs and delays as one send per destination in
        order, but the delays are one batched draw and every event shares
        one payload: msg copied once, with "src" added. A draw that does not
        give exactly one delay per destination raises ConfigError before
        anything is queued. Each delivery is queued through schedule, which
        checks its destination, once its delay is checked, so a bad delay or
        destination fails after the deliveries before it were queued, as a
        loop of sends would.
        """
        if at is None:
            at = self.now
        else:
            _check_ticks((at,))
            if at < self.now:
                raise SchedulePastError(f"cannot send at t={at}, now is t={self.now}")
        payload = dict(msg)
        payload["src"] = src
        delays = self.message_delays(src, dsts, msg)
        if len(delays) != len(dsts):
            raise ConfigError(
                f"delay policy gave {len(delays)} delays for {len(dsts)} destinations")
        schedule = self.schedule
        events = []
        for dst, delay in zip(dsts, delays):
            if delay < 1:
                raise ConfigError("message delay must be at least one tick")
            events.append(schedule(at + delay, dst, _DELIVER, payload))
        return events

    def set_timer(self, target: str, delay: int, payload: Mapping[str, Any]) -> Event:
        _check_ticks((delay,))
        if delay < 1:
            raise ConfigError("timer delay must be at least one tick")
        return self.schedule(self.now + delay, target, _TIMER_FIRE, payload)

    def inject_crash(self, component: str, time: VirtualTime, *,
                     permanent: bool = False) -> Event:
        """Crash at the given tick. Transient crashes recover after a
        policy-drawn delay; permanent ones halt for the rest of the run."""
        if type(time) is not int:  # _check_ticks inline: about 10 crashes a battery run
            raise ConfigError(f"ticks must be int, got {time!r}")
        payload = {"permanent": True} if permanent else {}
        return self.schedule(time, component, _CRASH, payload)

    # -- main loop ---------------------------------------------------------

    def run_until_quiescent(self) -> Trace:
        pending, ticks = self._pending, self._ticks
        handlers, crashed = self._handlers, self._crashed
        records = self._records
        limit = self.step_limit
        recovery_delay = self.recovery_delay
        pop = heappop
        crash, recover = _CRASH, _RECOVER
        steps = 0
        while ticks:
            self.now = now = pop(ticks)
            # Events scheduled for now from here on go to a fresh list.
            batch = pending.pop(now)
            steps += len(batch)
            if steps > limit:
                del batch[limit - steps:]  # run only the events within the limit
            for ev in batch:
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
            if steps > limit:
                raise StepLimitExceeded(f"exceeded {limit} events; likely livelock")
            # The tick's events are recorded once they all ran.
            records += batch
        return Trace(seed=self.seed, records=tuple(self._records))


def new_simulation(n: int, delay_policy: DelayPolicy, seed: int, *,
                   epoch: int = 1) -> Simulation:
    """Fresh simulation with n persistence components c0..c{n-1}, all idle.

    Components start holding epoch - 1 durably; epoch is the transition
    target a protocol will drive them toward.
    """
    process = _persistence.PersistenceProcess
    return Simulation(delay_policy, seed, components=[
        process(name, epoch) for name in _cluster_names("c", n)])


@lru_cache(maxsize=128)
def _cluster_names(prefix: str, n: int) -> tuple[str, ...]:
    """Names {prefix}0..{prefix}{n-1} of an n-member cluster; refuses n < 1."""
    if n < 1:
        raise ConfigError("cluster size must be at least one component")
    return tuple(f"{prefix}{i}" for i in range(n))


# Last, because persistence imports this module. When persistence loads
# first this binds the half-loaded module, and new_simulation reads
# PersistenceProcess off it only when called.
from . import persistence as _persistence  # noqa: E402
