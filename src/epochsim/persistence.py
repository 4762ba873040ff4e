"""Per-component staged durable-write state machine with crash outcomes.

A persistence attempt for epoch e walks strictly ordered stages:

    Idle -> BufferFlush -> DmaTransfer -> WriteSyscall -> Fsync
         -> MetadataUpdate -> Done

All stage durations are drawn when the attempt begins. The kernel sees a
single completion event per attempt; a crash reads the stage in progress
off the precomputed timeline of stage end ticks.

Crashing mid-attempt leaves the component in one of three durable states,
looked up by the stage in progress: early stages leave the prior epoch
intact, a crash inside the write/fsync window leaves the bytes ambiguous,
and once the metadata update has begun the new epoch is already durable.

Two write modes:

* direct: the attempt overwrites the stable copy in place. Crash outcomes
  apply literally; completing the attempt commits epoch e unilaterally.
* tentative: the attempt targets a staging area and the stable copy is not
  touched until an explicit commit directive. A crash that would have been
  "committed" means the staged data is durable (the attempt survives); any
  earlier crash just discards the staging, leaving the stable prior epoch.
  Ambiguity therefore never escapes into the stable state in this mode,
  which is what makes an acknowledged two-phase transition all-or-nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from .kernel import Component, Event, EventKind, digest64
from .lattice import EpochSymbol

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
# Their names, as passed to DelayPolicy.stage_duration.
ACTIVE_STAGE_NAMES: tuple[str, ...] = tuple(s.name for s in ACTIVE_STAGES)


class OutcomeKind(str, Enum):
    COMMITTED = "committed"
    PRIOR = "prior"
    AMBIGUOUS = "ambiguous"


# Members the per-event methods use, bound once: a global name is about ten
# times cheaper to read than a lookup through the enum class.
_IDLE = PersistenceStage.IDLE
_BUFFER_FLUSH = PersistenceStage.BUFFER_FLUSH
_DONE = PersistenceStage.DONE
_DELIVER = EventKind.DELIVER
_LOCAL_STEP = EventKind.LOCAL_STEP
_COMMITTED = OutcomeKind.COMMITTED
_PRIOR = OutcomeKind.PRIOR
_AMBIGUOUS = OutcomeKind.AMBIGUOUS


@dataclass(frozen=True)
class ComponentEpochState:
    """Durable epoch content of one component.

    committed(e) carries epoch e; prior(e) carries e - 1, the epoch the
    component still reflects; ambiguous carries no epoch claim. The three
    constructors return one shared instance per (kind, epoch); states are
    frozen, so sharing one is safe.
    """

    kind: OutcomeKind
    epoch: int | None = None

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def committed(cls, epoch: int) -> ComponentEpochState:
        return cls(_COMMITTED, epoch)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def prior(cls, epoch: int) -> ComponentEpochState:
        return cls(_PRIOR, epoch - 1)

    @classmethod
    @lru_cache(maxsize=None)
    def ambiguous(cls) -> ComponentEpochState:
        return cls(_AMBIGUOUS, None)

    def to_symbol(self) -> EpochSymbol:
        return _SYMBOL_OF_KIND[self.kind]

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "epoch": self.epoch}


_SYMBOL_OF_KIND = {_COMMITTED: EpochSymbol.E, _PRIOR: EpochSymbol.E_MINUS_1,
                   _AMBIGUOUS: EpochSymbol.BOTTOM}


@dataclass(frozen=True)
class DurabilityMap:
    """Stage in progress at crash time -> recovery outcome kind."""

    outcomes: Mapping[PersistenceStage, OutcomeKind]

    def __post_init__(self) -> None:
        missing = [s for s in PersistenceStage if s not in self.outcomes]
        if missing:
            raise ValueError(f"durability map missing stages: {missing}")
        # Durability only accumulates: outcomes must be monotone along the
        # stage order, start at prior, and end committed.
        ranks = [_SYMBOL_OF_KIND[self.outcomes[s]].rank for s in PersistenceStage]
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            raise ValueError("durability map must be monotone along the stage order")
        if self.outcomes[PersistenceStage.IDLE] is not OutcomeKind.PRIOR:
            raise ValueError("a crash while idle must leave the prior epoch")
        if self.outcomes[PersistenceStage.DONE] is not OutcomeKind.COMMITTED:
            raise ValueError("a completed persist must be durable")

    def outcome_at(self, stage: PersistenceStage) -> OutcomeKind:
        return self.outcomes[stage]


DEFAULT_DURABILITY = DurabilityMap({
    PersistenceStage.IDLE: OutcomeKind.PRIOR,
    PersistenceStage.BUFFER_FLUSH: OutcomeKind.PRIOR,
    PersistenceStage.DMA_TRANSFER: OutcomeKind.PRIOR,
    PersistenceStage.WRITE_SYSCALL: OutcomeKind.AMBIGUOUS,
    PersistenceStage.FSYNC: OutcomeKind.AMBIGUOUS,
    PersistenceStage.METADATA_UPDATE: OutcomeKind.COMMITTED,
    PersistenceStage.DONE: OutcomeKind.COMMITTED,
})


def crash_outcome(stage: PersistenceStage, epoch: int,
                  durability: DurabilityMap = DEFAULT_DURABILITY) -> ComponentEpochState:
    """Durable state recovered after a crash with `stage` in progress."""
    kind = durability.outcome_at(stage)
    if kind is _COMMITTED:
        return ComponentEpochState.committed(epoch)
    if kind is _PRIOR:
        return ComponentEpochState.prior(epoch)
    return ComponentEpochState.ambiguous()


def ack_digest(component: str, epoch: int) -> str:
    """Content hash a component attaches to its readiness ack."""
    return digest64(f"{component}:{epoch}")


@dataclass
class CrashRecord:
    stage: str
    acked: bool
    tentative: bool


class PersistenceProcess(Component):
    """One component's durable state plus the staged-write machinery.

    Protocol wiring is optional: ack_to names a coordinator to notify when
    a tentative persist completes, and decision_record is a durable
    directive log the component re-reads on recovery.
    """

    def __init__(self, name: str, epoch: int,
                 durability: DurabilityMap = DEFAULT_DURABILITY):
        self.name = name
        self.epoch = epoch
        self.durability = durability
        self.state = ComponentEpochState.prior(epoch)
        self.stage = _IDLE
        self.tentative = False
        self.staged_ready = False   # staged copy of epoch e is durable
        self.resolved = False       # a commit/rollback directive was applied
        self.acked = False
        self.attempt = 0            # staleness guard for the queued completion
        self._stage_ends: tuple[int, ...] = ()  # end tick of each active stage
        self.ack_to: str | None = None
        self.decision_record = None  # protocols.DecisionRecord, wired externally
        self.corrupt_ack = False
        self.crash_log: list[CrashRecord] = []

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
        # Draw every stage duration now, in stage order, so the draw sequence
        # is a deterministic function of the event order.
        stage_duration, rng, name = sim.policy.stage_duration, sim.rng, self.name
        end = sim.now
        ends = []
        for stage_name in ACTIVE_STAGE_NAMES:
            end += stage_duration(rng, name, stage_name)
            ends.append(end)
        self._stage_ends = tuple(ends)
        sim.schedule(end, self.name, _LOCAL_STEP,
                     {"action": "persist_done", "attempt": self.attempt,
                      "epoch": self.epoch})

    def _complete(self, sim: Simulation) -> None:
        self.stage = _DONE
        if self.tentative:
            self.staged_ready = True
            if self.ack_to is not None:
                digest = ack_digest(self.name, self.epoch)
                if self.corrupt_ack:
                    digest = digest64(digest + ":corrupt")
                sim.send(self.name, self.ack_to,
                         {"type": "ready", "epoch": self.epoch,
                          "component": self.name, "digest": digest})
                self.acked = True
        else:
            self.state = ComponentEpochState.committed(self.epoch)

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
            self.state = ComponentEpochState.committed(self.epoch)
            self.stage = _DONE
        else:
            self.state = ComponentEpochState.prior(self.epoch)
            self.staged_ready = False
            self.stage = _IDLE
            self.attempt += 1  # a rollback ends the attempt in flight
        self.resolved = True

    # -- crash and recovery ----------------------------------------------------

    def on_crash(self, sim: Simulation, event: Event) -> None:
        if self.stage in ACTIVE_STAGES:
            # Crashes are injected at setup, so one at stage k's end tick sees stage k.
            self.stage = ACTIVE_STAGES[bisect_left(self._stage_ends, sim.now)]
        self.crash_log.append(CrashRecord(self.stage.name, self.acked, self.tentative))
        if self.stage in ACTIVE_STAGES:
            kind = self.durability.outcome_at(self.stage)
            if self.tentative:
                # Staging writes never touch the stable copy: either the
                # staged data is already durable, or the attempt is discarded.
                if kind is _COMMITTED:
                    self.staged_ready = True
                    self.stage = _DONE
                else:
                    self.staged_ready = False
                    self.stage = _IDLE
            else:
                self.state = crash_outcome(self.stage, self.epoch, self.durability)
                self.stage = _DONE if kind is _COMMITTED else _IDLE
            self.attempt += 1  # invalidate the queued completion
        # A crash at Idle or Done changes nothing durable: a completed direct
        # persist is stable, and durable staged data survives.

    def on_recover(self, sim: Simulation, event: Event) -> None:
        # Re-read the durable directive log; a decision made while this
        # component was down is re-delivered as a message.
        record = self.decision_record
        if record is not None and record.decision is not None and not self.resolved:
            kind, epoch = record.decision
            sim.send(record.writer, self.name, {"type": kind, "epoch": epoch})

    # -- observation ------------------------------------------------------------

    def epoch_state(self) -> ComponentEpochState:
        return self.state

    def symbol(self) -> EpochSymbol:
        return self.state.to_symbol()
