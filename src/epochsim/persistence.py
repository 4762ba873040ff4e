"""Per-component staged durable-write state machine with crash outcomes.

A persistence attempt for epoch e walks strictly ordered stages:

    Idle -> BufferFlush -> DmaTransfer -> WriteSyscall -> Fsync
         -> MetadataUpdate -> Done

All stage durations are drawn when the attempt begins. The kernel sees a
single completion event per attempt; a crash reads the stage in progress
off the precomputed timeline of stage end ticks.

A component's durable state is its lattice symbol relative to e: E_MINUS_1
(the prior epoch), BOTTOM (ambiguous bytes) or E. Crashing mid-attempt
leaves the symbol that the crash table `DURABILITY` gives for the stage in
progress: early stages leave the prior epoch intact, a crash inside the
write/fsync window leaves the bytes ambiguous, and once the metadata update
has begun the new epoch is already durable.

Two write modes:

* direct: the attempt overwrites the stable copy in place. Crash outcomes
  apply literally; completing the attempt commits epoch e unilaterally.
* tentative: the attempt targets a staging area and the stable copy is not
  touched until an explicit commit directive. A crash that would have left
  E durable means the staged data is durable (the attempt survives); any
  earlier crash just discards the staging, leaving the stable prior epoch.
  Ambiguity therefore never escapes into the stable state in this mode,
  which is what makes an acknowledged two-phase transition all-or-nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .kernel import Component, Event, _DELIVER, _LOCAL_STEP, digest64
from .lattice import EpochSymbol, _E, _E_MINUS_1

if TYPE_CHECKING:
    from .kernel import Simulation


class ProtocolViolation(Exception):
    """An operation was invoked in a state the protocol forbids."""


class PersistenceStage(IntEnum):
    IDLE = 0
    BUFFER_FLUSH = 1
    DMA_TRANSFER = 2
    WRITE_SYSCALL = 3
    FSYNC = 4
    METADATA_UPDATE = 5
    DONE = 6


# Stages an in-flight attempt passes through, in order.
ACTIVE_STAGES: tuple[PersistenceStage, ...] = (
    PersistenceStage.BUFFER_FLUSH,
    PersistenceStage.DMA_TRANSFER,
    PersistenceStage.WRITE_SYSCALL,
    PersistenceStage.FSYNC,
    PersistenceStage.METADATA_UPDATE,
)
# Their names, as passed to the simulation's stage_durations draw.
ACTIVE_STAGE_NAMES: tuple[str, ...] = tuple(s.name for s in ACTIVE_STAGES)
# Every stage's name, indexed by its value: a tuple read is cheaper than the
# enum's Python-level name property, which on_crash would read per crash.
_STAGE_NAMES: tuple[str, ...] = tuple(s.name for s in PersistenceStage)


# Stage members the per-event methods use, bound once: a global name is
# about ten times cheaper to read than a lookup through the enum class. The
# event-kind and symbol aliases are kernel's and lattice's.
_IDLE = PersistenceStage.IDLE
_BUFFER_FLUSH = PersistenceStage.BUFFER_FLUSH
_DONE = PersistenceStage.DONE

# The crash table: stage in progress at crash time -> the symbol a direct
# write leaves durable. Durability only accumulates, so the symbols' ranks
# never fall along the stage order.
DURABILITY: Mapping[PersistenceStage, EpochSymbol] = MappingProxyType({
    PersistenceStage.IDLE: EpochSymbol.E_MINUS_1,
    PersistenceStage.BUFFER_FLUSH: EpochSymbol.E_MINUS_1,
    PersistenceStage.DMA_TRANSFER: EpochSymbol.E_MINUS_1,
    PersistenceStage.WRITE_SYSCALL: EpochSymbol.BOTTOM,
    PersistenceStage.FSYNC: EpochSymbol.BOTTOM,
    PersistenceStage.METADATA_UPDATE: EpochSymbol.E,
    PersistenceStage.DONE: EpochSymbol.E,
})


@lru_cache(maxsize=1024)  # a pure function of its arguments, hashed on every ack
def ack_digest(component: str, epoch: int) -> str:
    """Content hash a component attaches to its readiness ack."""
    return digest64(f"{component}:{epoch}")


@dataclass
class CrashRecord:
    stage: str
    acked: bool


class PersistenceProcess(Component):
    """One component's durable state plus the staged-write machinery.

    The component owns its transition: epoch is the target it moves to and
    state is the symbol it holds; a protocol reads both off its participants
    once the run quiesces. staged_ready is derived: a tentative attempt at Done.

    Protocol wiring is optional: ack_to names a coordinator to notify when
    a tentative persist completes, and decision_log is that coordinator's
    protocols.DecisionLog, read on recovery as a collective reads it.
    """

    def __init__(self, name: str, epoch: int):
        self.name = name
        self.epoch = epoch                 # the epoch this component moves to
        self.state = _E_MINUS_1            # durable symbol relative to `epoch`
        self.stage = _IDLE
        self.tentative = False
        self.resolved = False       # a commit/rollback directive was applied
        self.acked = False
        self.attempt = 0            # staleness guard for the queued completion
        self._stage_ends: tuple[int, ...] = ()  # end tick of each active stage
        self.ack_to: str | None = None
        self.decision_log = None  # protocols.DecisionLog, wired externally
        self.crash_log: list[CrashRecord] = []

    @property
    def staged_ready(self) -> bool:
        """The staged copy of epoch e is durable: a tentative attempt reached Done."""
        return self.tentative and self.stage is _DONE

    # -- event plumbing ------------------------------------------------------

    def on_event(self, sim: Simulation, event: Event) -> None:
        payload = event.payload
        if event.kind is _DELIVER:
            mtype = payload.get("type")
            if mtype == "checkpoint":
                if self.resolved:
                    return  # a directive overtook this checkpoint; nothing to do
                self.begin_persist(sim, payload["epoch"],
                                   tentative=bool(payload.get("tentative", False)))
            elif mtype in ("commit", "rollback"):
                self.apply_directive(sim, mtype, payload["epoch"])
        elif event.kind is _LOCAL_STEP:
            if payload.get("action") == "persist_done" and payload.get("attempt") == self.attempt:
                self._complete(sim)

    # -- persistence attempt -------------------------------------------------

    def begin_persist(self, sim: Simulation, epoch: int, *, tentative: bool = False) -> None:
        if self.stage is not _IDLE:
            raise ProtocolViolation(
                f"{self.name}: persist requested while {self.stage.name}")
        if epoch != self.epoch:
            raise ProtocolViolation(
                f"{self.name}: persist for epoch {epoch}, expected {self.epoch}")
        self.tentative = tentative
        self.attempt += 1
        self.stage = _BUFFER_FLUSH  # in flight; on_crash finds the exact stage
        # Draw every stage duration now, in stage order and in one batched
        # call, so the draw sequence is a deterministic function of the
        # event order. The running sums are written out: accumulate() and a
        # tuple slice cost more than these five additions.
        flush, dma, write, fsync, end = sim.stage_durations(self.name, ACTIVE_STAGE_NAMES)
        flush += sim.now
        dma += flush
        write += dma
        fsync += write
        end += fsync
        self._stage_ends = (flush, dma, write, fsync, end)
        sim.schedule(end, self.name, _LOCAL_STEP,
                     {"action": "persist_done", "attempt": self.attempt,
                      "epoch": self.epoch})

    def _complete(self, sim: Simulation) -> None:
        self.stage = _DONE
        if not self.tentative:
            self.state = _E
        elif self.ack_to is not None:
            sim.send(self.name, self.ack_to,
                     {"type": "ready", "epoch": self.epoch, "component": self.name,
                      "digest": ack_digest(self.name, self.epoch)})
            self.acked = True

    # -- directives (tentative mode) ------------------------------------------

    def apply_directive(self, sim: Simulation, kind: str, epoch: int) -> None:
        if epoch != self.epoch:
            raise ProtocolViolation(
                f"{self.name}: directive for epoch {epoch}, expected {self.epoch}")
        if self.resolved:
            return  # duplicate delivery; directives are idempotent
        if kind == "commit":
            if not self.staged_ready:
                raise ProtocolViolation(
                    f"{self.name}: commit directive without durable staged data")
            self.state = _E
            self.stage = _DONE
        else:
            self.state = _E_MINUS_1
            self.stage = _IDLE
            self.attempt += 1  # a rollback ends the attempt in flight
        self.resolved = True

    # -- crash and recovery ----------------------------------------------------

    def on_crash(self, sim: Simulation, event: Event) -> None:
        stage = self.stage
        if stage in ACTIVE_STAGES:
            # Crashes are injected at setup, so one at stage k's end tick sees stage k.
            stage = ACTIVE_STAGES[bisect_left(self._stage_ends, sim.now)]
            symbol = DURABILITY[stage]
            # Staging writes never touch the stable copy: a tentative attempt
            # either has its staged data durable already (Done) or is
            # discarded (Idle).
            if not self.tentative:
                self.state = symbol
            self.stage = _DONE if symbol is _E else _IDLE
            self.attempt += 1  # invalidate the queued completion
        # A crash at Idle or Done changes nothing durable: a completed direct
        # persist is stable, and durable staged data survives.
        self.crash_log.append(CrashRecord(_STAGE_NAMES[stage], self.acked))

    def on_recover(self, sim: Simulation, event: Event) -> None:
        # Re-read the durable decision log; a decision made while this
        # component was down is re-delivered by the coordinator.
        log = self.decision_log
        if log is not None and not self.resolved:
            readable, kind = log.read(sim.now)
            if readable and kind is not None:
                sim.send(self.ack_to, self.name, {"type": kind, "epoch": self.epoch})
