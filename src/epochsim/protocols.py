"""Cluster checkpoint protocols over the simulation kernel.

Two protocols drive an n-component epoch transition:

* run_naive: broadcast the checkpoint signal, then declare the transition
  committed at a fixed boundary time t_c no matter what actually happened.
  The decision is taken on schedule alone, so a crash that straddles the
  boundary leaves the cluster mixed while the declaration still says
  committed. The outcome records both the vector observed at t_c and the
  stable vector after the run quiesces.

* run_bilateral: two-phase transition. Components persist tentatively and
  ack readiness (with a content digest); if all n acks arrive before the
  timeout the coordinator logs commit, otherwise rollback, and broadcasts
  the directive. Recovering components re-read the durable directive log,
  so every decided run converges to all-committed or all-prior. If the
  coordinator dies before deciding, the outcome is NoDecision with the
  still-blocked components listed (the classic blocking cost of the
  guarantee).

run_retry_loop models re-running a failed transition where each retry can
raise the per-component failure probability (load amplification): attempt
k fails each component with min(1, p0 * alpha^(k-1)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .kernel import (Component, ConfigError, Event, EventKind, Simulation, Trace,
                     UniformDelay, _component_names, new_simulation)
from .lattice import AtomicityClass, EpochVector
from .persistence import ACTIVE_STAGES, PersistenceProcess, ack_digest

_DELIVER = EventKind.DELIVER
_TIMER_FIRE = EventKind.TIMER_FIRE


class Decision(str, Enum):
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"
    NO_DECISION = "no_decision"


@dataclass(frozen=True)
class NaiveCheckpointConfig:
    boundary_time: int = 10  # t_c: when the transition is declared done

    def __post_init__(self) -> None:
        if self.boundary_time < 1:
            raise ValueError("boundary time must be positive")


@dataclass(frozen=True)
class BilateralConfig:
    ack_timeout: int = 30
    corrupt_acks: frozenset[str] = frozenset()  # fault injection: bad digests

    def __post_init__(self) -> None:
        if self.ack_timeout < 1:
            raise ValueError("ack timeout must be positive")


@dataclass
class ProtocolOutcome:
    decision: Decision
    epoch: int
    final_vector: EpochVector          # stable vector once the run quiesces
    vector_class: AtomicityClass
    trace: Trace
    decision_time: int | None = None
    boundary_vector: EpochVector | None = None  # naive only: vector at t_c
    blocked: tuple[str, ...] = ()

    @property
    def disagreement(self) -> bool:
        """Decision claims all-committed but the stable vector disagrees."""
        return (self.decision is Decision.COMMITTED
                and self.vector_class is not AtomicityClass.TOP)


@dataclass
class DecisionRecord:
    """Write-once durable decision log, readable after any crash."""

    decision: tuple[str, int] | None = None
    time: int | None = None

    def write(self, kind: str, epoch: int, time: int) -> None:
        if self.decision is not None:
            if self.decision != (kind, epoch):
                raise ValueError("decision log is write-once")
            return
        self.decision = (kind, epoch)
        self.time = time


def _participants(sim: Simulation) -> tuple[list[PersistenceProcess], int]:
    """The persistence components and the one epoch they all move to."""
    parts = [p for p in sim.components.values() if isinstance(p, PersistenceProcess)]
    if not parts:
        raise ValueError("simulation has no persistence components")
    epochs = {p.epoch for p in parts}
    if len(epochs) > 1:
        raise ValueError(f"participants move to different epochs {sorted(epochs)}")
    return parts, parts[0].epoch


def _vector(parts: Sequence[PersistenceProcess]) -> EpochVector:
    return EpochVector.of(p.state for p in parts)


def snap_holds(vector: EpochVector | None) -> bool:
    """Instantaneous reading: did every component show Committed at the probe?

    Evaluated from a single sampled vector; says nothing about where
    in-flight writes land once crashes and recoveries settle.
    """
    return vector is not None and vector.classify() is AtomicityClass.TOP


def conv_holds(outcome: ProtocolOutcome, epoch: int) -> bool:
    """Convergence as a property of the completed run.

    Reads the quiesced state: the run must move its participants to
    `epoch`, and every one of them must have ended durably holding E once
    all crashes and recoveries settled. Deciding this from where the run
    ended, rather than from a vector sampled at one boundary instant, is
    what separates an all-or-nothing guarantee from a boundary declaration;
    a write straddling the boundary can look fine at t_c and still land
    prior or ambiguous.
    """
    return outcome.epoch == epoch and outcome.vector_class is AtomicityClass.TOP


# ---------------------------------------------------------------------------
# Naive boundary-declared checkpoint
# ---------------------------------------------------------------------------


class BoundaryProbe(Component):
    """Observer that snapshots the cluster vector at the declared boundary."""

    def __init__(self, participant_names: Sequence[str]):
        self.name = "probe"
        self.participant_names = tuple(participant_names)
        self.vector: EpochVector | None = None

    def on_event(self, sim: Simulation, event: Event) -> None:
        if event.payload.get("type") == "boundary":
            components = sim.components
            self.vector = EpochVector.of(
                components[n].state for n in self.participant_names)


def run_naive(sim: Simulation, config: NaiveCheckpointConfig,
              crashes: Iterable[tuple[str, int]] = ()) -> ProtocolOutcome:
    """Broadcast, then declare committed at t_c unconditionally.

    The checkpoint signal goes out at t=0 with policy delays; components
    persist directly (in place). Whatever the cluster looks like at t_c,
    the decision is Committed(epoch). Crashes passed in are injected before
    the boundary probe so a crash at exactly t_c is visible to it.
    """
    parts, epoch = _participants(sim)
    names = [p.name for p in parts]
    sim.broadcast("origin", names,
                  {"type": "checkpoint", "epoch": epoch, "tentative": False})
    for component, time in crashes:
        sim.inject_crash(component, time)
    probe = BoundaryProbe(names)
    sim.register(probe)
    sim.set_timer(probe.name, config.boundary_time, {"type": "boundary"})
    trace = sim.run_until_quiescent()
    final = _vector(parts)
    return ProtocolOutcome(
        decision=Decision.COMMITTED,
        epoch=epoch,
        final_vector=final,
        vector_class=final.classify(),
        trace=trace,
        decision_time=config.boundary_time,
        boundary_vector=probe.vector,
    )


# ---------------------------------------------------------------------------
# Bilateral (acknowledged two-phase) checkpoint
# ---------------------------------------------------------------------------


class BilateralCoordinator(Component):
    def __init__(self, participant_names: Sequence[str], epoch: int,
                 config: BilateralConfig, record: DecisionRecord):
        self.name = "coord"
        self.participant_names = tuple(participant_names)
        self.epoch = epoch
        self.config = config
        self.record = record
        self.acks: set[str] = set()

    def start(self, sim: Simulation) -> None:
        sim.broadcast(self.name, self.participant_names,
                      {"type": "checkpoint", "epoch": self.epoch, "tentative": True})
        sim.set_timer(self.name, self.config.ack_timeout,
                      {"type": "ack_timeout", "epoch": self.epoch})

    def on_event(self, sim: Simulation, event: Event) -> None:
        payload = event.payload
        if event.kind is _DELIVER and payload.get("type") == "ready":
            if self.record.decision is not None:
                return
            component = payload["component"]
            if payload.get("digest") != ack_digest(component, self.epoch):
                return  # a mismatched digest counts as a missing ack
            self.acks.add(component)
            if len(self.acks) == len(self.participant_names):
                self._decide(sim, "commit")
        elif event.kind is _TIMER_FIRE and payload.get("type") == "ack_timeout":
            if self.record.decision is None:
                self._decide(sim, "rollback")

    def _decide(self, sim: Simulation, kind: str) -> None:
        self.record.write(kind, self.epoch, sim.now)
        sim.broadcast(self.name, self.participant_names,
                      {"type": kind, "epoch": self.epoch})


def run_bilateral(sim: Simulation, config: BilateralConfig,
                  crashes: Iterable[tuple[str, int]] = (),
                  coordinator_crash_at: int | None = None) -> ProtocolOutcome:
    """Tentative persists plus acks; commit only on unanimous readiness."""
    parts, epoch = _participants(sim)
    record = DecisionRecord()
    coord = BilateralCoordinator([p.name for p in parts], epoch, config, record)
    for p in parts:
        p.ack_to = coord.name
        p.decision_record = record
        p.corrupt_ack = p.name in config.corrupt_acks
    sim.register(coord)
    coord.start(sim)
    for component, time in crashes:
        sim.inject_crash(component, time)
    if coordinator_crash_at is not None:
        # a halting failure: the classic blocking case for this protocol
        sim.inject_crash(coord.name, coordinator_crash_at, permanent=True)
    trace = sim.run_until_quiescent()
    if record.decision is None:
        decision = Decision.NO_DECISION
    elif record.decision[0] == "commit":
        decision = Decision.COMMITTED
    else:
        decision = Decision.ROLLED_BACK
    final = _vector(parts)
    blocked = tuple(p.name for p in parts if not p.resolved) \
        if decision is Decision.NO_DECISION else ()
    return ProtocolOutcome(
        decision=decision,
        epoch=epoch,
        final_vector=final,
        vector_class=final.classify(),
        trace=trace,
        decision_time=record.time,
        blocked=blocked,
    )


# ---------------------------------------------------------------------------
# Side-by-side battery
# ---------------------------------------------------------------------------


def derive_seed(master: int, index: int) -> int:
    """Deterministic, platform-stable per-run seed derivation."""
    x = (master * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB)
    x &= (1 << 64) - 1
    x ^= x >> 31
    return x


# The battery's fixed design: each component crashes at most once, at a tick
# in 1..CRASH_WINDOW, and every delay is drawn from one frozen U(1, 3) policy.
CRASH_WINDOW = 28
BATTERY_DELAY = UniformDelay(1, 3)
# Draws on the path to a bilateral ack: the checkpoint message, one duration
# per active stage, and the ack message.
SLOWEST_ACK = 2 + len(ACTIVE_STAGES)


def crash_free_commits(ack_timeout: int) -> bool:
    """Whether every crash-free battery run ends Top under both protocols.

    Naive always decides Committed, and with no crash every component ends
    at E. A bilateral ack arrives after SLOWEST_ACK draws of at most
    BATTERY_DELAY.hi ticks each, so by tick SLOWEST_ACK * hi = 21. The ack
    timer is scheduled before any ack and wins a tie, so only a timeout
    above that tick lets every ack win and the run commit. Such a run
    crashes no stage and ends neither protocol Mixed, so a caller may count
    it as Top for both without simulating it.
    """
    return ack_timeout > SLOWEST_ACK * BATTERY_DELAY.hi


def crash_schedule(names: Sequence[str], rng: random.Random,
                   crash_prob: float, window: int) -> list[tuple[str, int]]:
    """Each component independently crashes once, at a uniform time."""
    out = []
    for name in names:
        if rng.random() < crash_prob:
            out.append((name, rng.randint(1, window)))
    return out


@dataclass
class ClassTallies:
    top: int = 0
    bottom_all: int = 0
    mixed: int = 0
    no_decision: int = 0
    disagreements: int = 0

    def add(self, outcome: ProtocolOutcome) -> None:
        if outcome.decision is Decision.NO_DECISION:
            self.no_decision += 1
        if outcome.vector_class is AtomicityClass.TOP:
            self.top += 1
        elif outcome.vector_class is AtomicityClass.BOTTOM_ALL:
            self.bottom_all += 1
        else:
            self.mixed += 1
        if outcome.disagreement:
            self.disagreements += 1

    def to_json_obj(self) -> dict:
        return {"top": self.top, "bottom_all": self.bottom_all, "mixed": self.mixed,
                "no_decision": self.no_decision, "disagreements": self.disagreements}


@dataclass
class ComparisonReport:
    runs: int
    n: int
    seed: int
    naive: ClassTallies
    bilateral: ClassTallies
    crash_stage_coverage: dict[str, int]
    sample_mixed_seed: int | None = None

    @property
    def naive_disagreement_rate(self) -> float:
        return self.naive.disagreements / self.runs

    def to_json_obj(self) -> dict:
        return {
            "runs": self.runs, "n": self.n, "seed": self.seed,
            "naive": self.naive.to_json_obj(),
            "bilateral": self.bilateral.to_json_obj(),
            "naive_disagreement_rate": self.naive_disagreement_rate,
            "crash_stage_coverage": dict(sorted(self.crash_stage_coverage.items())),
            "sample_mixed_seed": self.sample_mixed_seed,
        }


def compare_protocols(n: int, runs: int, seed: int, *, crash_prob: float = 0.15,
                      boundary_time: int = 10, ack_timeout: int = 30,
                      workers: int = 1) -> ComparisonReport:
    """Run naive and bilateral side by side under identical crash injection.

    Runs execute one after another on the calling thread. Run i draws its
    crash schedule and seeds both simulations from derive_seed(seed, i),
    so it does not depend on any other run. A run that draws no crash is
    counted Top for both protocols without being simulated when
    ack_timeout > SLOWEST_ACK * BATTERY_DELAY.hi = 21 (see
    crash_free_commits); at or below that bound it is simulated like any
    other. `workers` is accepted and ignored: the report is the same for
    every value.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    # Checked here, not left to new_simulation: a battery of crash-free
    # runs may build no simulation at all.
    if n < 1:
        raise ConfigError("cluster size must be at least one component")
    if not 0.0 <= crash_prob <= 1.0:
        raise ValueError("crash probability must lie in [0, 1]")
    names = _component_names(n)
    bilateral_config = BilateralConfig(ack_timeout=ack_timeout)
    naive_config = NaiveCheckpointConfig(boundary_time=boundary_time)
    settle = crash_free_commits(ack_timeout)
    naive_t = ClassTallies()
    bilat_t = ClassTallies()
    coverage: dict[str, int] = {}
    sample: int | None = None
    for i in range(runs):
        run_seed = derive_seed(seed, i)
        rng = random.Random(run_seed)
        crashes = crash_schedule(names, rng, crash_prob, CRASH_WINDOW)
        if settle and not crashes:
            naive_t.top += 1
            bilat_t.top += 1
            continue

        sim_b = new_simulation(n, BATTERY_DELAY, run_seed)
        out_b = run_bilateral(sim_b, bilateral_config, crashes=crashes)
        bilat_t.add(out_b)
        # Only a component in the crash schedule, which names each at most
        # once, has a crash log.
        for name, _ in crashes:
            for rec in sim_b.handler(name).crash_log:
                coverage[rec.stage] = coverage.get(rec.stage, 0) + 1
                if rec.acked:
                    coverage["post_ack"] = coverage.get("post_ack", 0) + 1

        sim_n = new_simulation(n, BATTERY_DELAY, run_seed)
        out_n = run_naive(sim_n, naive_config, crashes=crashes)
        naive_t.add(out_n)
        if sample is None and out_n.vector_class is AtomicityClass.MIXED:
            sample = run_seed
    return ComparisonReport(runs=runs, n=n, seed=seed, naive=naive_t,
                            bilateral=bilat_t, crash_stage_coverage=coverage,
                            sample_mixed_seed=sample)


# ---------------------------------------------------------------------------
# Retry loop with load amplification
# ---------------------------------------------------------------------------


# A model holds its schedule for the whole attempt budget, so the budget is
# bounded: 10,000 entries take about 1.5 MB.
RETRY_MAX_ATTEMPTS = 10_000


@dataclass(frozen=True)
class RetryModel:
    base_failure_prob: float  # p0
    amplification: float = 1.0  # alpha >= 1: each retry raises the failure rate
    max_attempts: int = 40

    def __post_init__(self) -> None:
        if not (0.0 <= self.base_failure_prob <= 1.0):
            raise ValueError("base failure probability must lie in [0, 1]")
        if not (1.0 <= self.amplification < math.inf):
            raise ValueError("amplification must be a finite number >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_attempts > RETRY_MAX_ATTEMPTS:
            raise ValueError(f"max_attempts must be at most {RETRY_MAX_ATTEMPTS}")
        # A run's load is a sum of max_attempts terms alpha^(k-1), so this
        # bound keeps every load and failure probability a finite float.
        try:
            bound = self.max_attempts * self.amplification ** (self.max_attempts - 1)
        except OverflowError:
            bound = math.inf
        if bound == math.inf:
            raise ValueError(f"amplification {self.amplification:g} overflows a float "
                             f"over {self.max_attempts} attempts")

    def failure_prob(self, attempt: int) -> float:
        """Per-component failure probability on 1-indexed attempt k."""
        return min(1.0, self.base_failure_prob * self.amplification ** (attempt - 1))

    @cached_property
    def schedule(self) -> tuple[tuple[int, float, float], ...]:
        """(k, failure_prob(k), load after k attempts) for every attempt k.

        Built once per model. The load adds alpha^(k-1) attempt by attempt,
        so each entry is the float a loop recomputing it would reach.
        """
        out = []
        load = 0.0
        for k in range(1, self.max_attempts + 1):
            load += self.amplification ** (k - 1)
            out.append((k, self.failure_prob(k), load))
        return tuple(out)


@dataclass
class RetryStats:
    attempts: int
    succeeded: bool
    total_load: float  # sum over attempts of the relative load alpha^(k-1)


def run_retry_loop(model: RetryModel, n: int, rng: random.Random) -> RetryStats:
    """Repeat attempts until one succeeds or max_attempts is exhausted.

    An attempt succeeds iff none of the n components fails independently.
    Components draw one uniform each, in order, and the first failure ends
    the attempt: later components draw nothing.
    """
    schedule = model.schedule
    draw = rng.random
    for k, p, load in schedule:
        for _ in range(n):
            if draw() < p:
                break
        else:
            return RetryStats(attempts=k, succeeded=True, total_load=load)
    return RetryStats(attempts=model.max_attempts, succeeded=False,
                      total_load=schedule[-1][2])


def geometric_baseline(p0: float, n: int) -> float:
    """Expected attempts when every retry is independent (alpha = 1)."""
    p_success = (1.0 - p0) ** n
    if p_success <= 0.0:
        return float("inf")
    return 1.0 / p_success


@dataclass
class RetrySummary:
    alpha: float
    runs: int
    mean_attempts: float
    success_rate: float
    mean_load: float


def retry_sweep(p0: float, n: int, alphas: Sequence[float], runs: int, seed: int,
                *, max_attempts: int = 40) -> list[RetrySummary]:
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not alphas:
        raise ValueError("at least one amplification alpha is required")
    out = []
    for j, alpha in enumerate(alphas):
        model = RetryModel(base_failure_prob=p0, amplification=alpha,
                           max_attempts=max_attempts)
        total_attempts = 0
        total_load = 0.0
        successes = 0
        for i in range(runs):
            rng = random.Random(derive_seed(seed, j * runs + i))
            stats = run_retry_loop(model, n, rng)
            total_attempts += stats.attempts
            total_load += stats.total_load
            successes += int(stats.succeeded)
        if total_load == math.inf:
            raise ValueError(f"amplification {alpha:g}: the load summed over "
                             f"{runs} runs overflows a float")
        out.append(RetrySummary(alpha=alpha, runs=runs,
                                mean_attempts=total_attempts / runs,
                                success_rate=successes / runs,
                                mean_load=total_load / runs))
    return out
