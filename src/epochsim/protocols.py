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
  timeout the coordinator logs commit, otherwise rollback, in a write-once
  DecisionLog (the consensus deploy's register too) and broadcasts the
  directive. A recovering component reads that log directly and is sent
  its decision, so every decided run converges to all-committed or
  all-prior. If the coordinator dies before deciding, the outcome is
  NoDecision with the still-blocked components listed (the classic
  blocking cost of the guarantee).

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

from .kernel import (Component, DelayPolicy, Event, Simulation, Trace, UniformDelay,
                     _DELIVER, _TIMER_FIRE, _check_ticks, _cluster_names, new_simulation)
from .lattice import AtomicityClass, EpochVector
from .persistence import ACTIVE_STAGES, PersistenceProcess, ack_digest


class Decision(str, Enum):
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"
    NO_DECISION = "no_decision"


@dataclass(frozen=True)
class NaiveCheckpointConfig:
    boundary_time: int = 10  # t_c: when the transition is declared done

    def __post_init__(self) -> None:
        _check_ticks((self.boundary_time,))
        if self.boundary_time < 1:
            raise ValueError("boundary time must be positive")


@dataclass(frozen=True)
class BilateralConfig:
    ack_timeout: int = 30

    def __post_init__(self) -> None:
        _check_ticks((self.ack_timeout,))
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


class DecisionLog:
    """Write-once durable decision log, readable after any crash.

    The bilateral coordinator logs "commit" or "rollback"; the consensus
    deploy logs the firmware epoch it commits. Reads fail inside the
    outage window [lo, hi], which needs 0 <= lo <= hi.
    """

    def __init__(self, outage: tuple[int, int] | None = None):
        if outage is not None and not 0 <= outage[0] <= outage[1]:
            raise ValueError(f"outage window must satisfy 0 <= lo <= hi, got {outage}")
        self.decision: str | int | None = None
        self.time: int | None = None
        self.outage = outage

    def write(self, decision: str | int, time: int) -> None:
        """Log decision at time; logging the same value again is a no-op."""
        if self.decision is not None:
            if self.decision != decision:
                raise ValueError("decision log is write-once")
            return
        self.decision = decision
        self.time = time

    def read(self, now: int) -> tuple[bool, str | int | None]:
        """(readable, decision) at tick now; None while nothing is logged."""
        if self.outage is not None and self.outage[0] <= now <= self.outage[1]:
            return False, None
        return True, self.decision

    def to_json_obj(self) -> dict:
        return {"committed": self.decision, "decision_time": self.time}


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
    return EpochVector.of([p.state for p in parts])


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
                [components[n].state for n in self.participant_names])


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
                 config: BilateralConfig, log: DecisionLog):
        self.name = "coord"
        self.participant_names = tuple(participant_names)
        self.epoch = epoch
        self.config = config
        self.log = log
        self.acks: set[str] = set()

    def start(self, sim: Simulation) -> None:
        sim.broadcast(self.name, self.participant_names,
                      {"type": "checkpoint", "epoch": self.epoch, "tentative": True})
        sim.set_timer(self.name, self.config.ack_timeout,
                      {"type": "ack_timeout", "epoch": self.epoch})

    def on_event(self, sim: Simulation, event: Event) -> None:
        payload = event.payload
        if event.kind is _DELIVER and payload.get("type") == "ready":
            if self.log.decision is not None:
                return
            component = payload["component"]
            if payload.get("digest") != ack_digest(component, self.epoch):
                return  # a mismatched digest counts as a missing ack
            self.acks.add(component)
            if len(self.acks) == len(self.participant_names):
                self._decide(sim, "commit")
        elif event.kind is _TIMER_FIRE and payload.get("type") == "ack_timeout":
            if self.log.decision is None:
                self._decide(sim, "rollback")

    def _decide(self, sim: Simulation, kind: str) -> None:
        self.log.write(kind, sim.now)
        sim.broadcast(self.name, self.participant_names,
                      {"type": kind, "epoch": self.epoch})


def run_bilateral(sim: Simulation, config: BilateralConfig,
                  crashes: Iterable[tuple[str, int]] = (),
                  coordinator_crash_at: int | None = None) -> ProtocolOutcome:
    """Tentative persists plus acks; commit only on unanimous readiness."""
    parts, epoch = _participants(sim)
    log = DecisionLog()
    coord = BilateralCoordinator([p.name for p in parts], epoch, config, log)
    for p in parts:
        p.ack_to = coord.name
        p.decision_log = log
    sim.register(coord)
    coord.start(sim)
    for component, time in crashes:
        sim.inject_crash(component, time)
    if coordinator_crash_at is not None:
        # a halting failure: the classic blocking case for this protocol
        sim.inject_crash(coord.name, coordinator_crash_at, permanent=True)
    trace = sim.run_until_quiescent()
    if log.decision is None:
        decision = Decision.NO_DECISION
    elif log.decision == "commit":
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
        decision_time=log.time,
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
# BATTERY_CRASH_PROB is the default chance that a component crashes at all,
# for battery_case, compare_protocols and bilateral-vs-naive --crash-prob.
CRASH_WINDOW = 28
BATTERY_DELAY = UniformDelay(1, 3)
BATTERY_CRASH_PROB = 0.15
# Draws on the path to a bilateral ack: the checkpoint message, one duration
# per active stage, and the ack message.
SLOWEST_ACK = 2 + len(ACTIVE_STAGES)
# The tick by which every battery persist has ended: the checkpoint message
# and one duration per active stage, each at most BATTERY_DELAY.hi ticks.
LATEST_DONE = (1 + len(ACTIVE_STAGES)) * BATTERY_DELAY.hi


def settles_top(crashes: Sequence[tuple[str, int]], ack_timeout: int) -> bool:
    """Whether a battery run with this crash schedule ends Top under both
    protocols, so that a caller may count it without simulating it.

    True when ack_timeout > SLOWEST_ACK * BATTERY_DELAY.hi = 21 and every
    crash lands after LATEST_DONE = 18; a run with no crash qualifies.
    Every checkpoint arrives by tick 3 and every persist ends by tick 18, so
    a later crash finds its component at Done under both protocols, and a
    crash at Done changes nothing durable. Naive always decides Committed
    and every component ends at E. A bilateral ack is sent by tick 18 and
    arrives by tick 21. The ack timer is scheduled before any ack and wins
    a tie, so only a timeout above 21 lets every ack win and the run
    commit; a component down when the directive lands re-reads it on
    recovery. Neither protocol ends Mixed, and each crash is logged once,
    at stage DONE with its ack sent. Both bounds are sharp: a timeout of 21
    can roll back a crash-free run, and a crash at tick 18 can cut the last
    stage short and withhold its ack.
    """
    return (ack_timeout > SLOWEST_ACK * BATTERY_DELAY.hi
            and all(t > LATEST_DONE for _, t in crashes))


def crash_schedule(names: Sequence[str], rng: random.Random,
                   crash_prob: float, window: int) -> list[tuple[str, int]]:
    """Each component independently crashes once, at a uniform time."""
    if not 0.0 <= crash_prob <= 1.0:
        raise ValueError("crash probability must lie in [0, 1]")
    out = []
    for name in names:
        if rng.random() < crash_prob:
            out.append((name, rng.randint(1, window)))
    return out


@dataclass(frozen=True)
class BatteryCase:
    """One battery run: cluster size, run seed and crash schedule.

    `seed` is the run seed a report's sample_mixed_seed names. Build cases
    with battery_case, which owns the battery's design.
    """
    n: int
    seed: int
    crashes: tuple[tuple[str, int], ...]

    @cached_property
    def _delays(self) -> DelayPolicy:
        """BATTERY_DELAY's values for this run's seed, one stream for all
        of the case's simulations; built on first use, kept by the case."""
        return BATTERY_DELAY._shared(self.seed)

    def simulation(self) -> Simulation:
        """A fresh simulation of this run; each protocol needs its own.

        Every simulation of one case reads one delay stream, which owns
        `seed` and refuses any other, from its first value, so each draws
        exactly what a simulation seeded alone with `seed` would, and the
        case's Mersenne Twister is seeded once, by the first simulation
        that draws. The case holds one byte per delay value drawn.
        """
        return new_simulation(self.n, self._delays, self.seed)


def battery_case(n: int, run_seed: int,
                 crash_prob: float = BATTERY_CRASH_PROB) -> BatteryCase:
    """The battery's run for run_seed: Random(run_seed) draws the crash
    schedule over 1..CRASH_WINDOW here, and BatteryCase._delays seeds the
    case's one delay stream with run_seed too. Naming the cluster refuses
    n < 1 before anything is drawn, settled run or not."""
    rng = random.Random(run_seed)
    crashes = crash_schedule(_cluster_names("c", n), rng, crash_prob, CRASH_WINDOW)
    return BatteryCase(n, run_seed, tuple(crashes))


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


def compare_protocols(n: int, runs: int, seed: int, *,
                      crash_prob: float = BATTERY_CRASH_PROB, boundary_time: int = 10,
                      ack_timeout: int = 30, workers: int = 1) -> ComparisonReport:
    """Run naive and bilateral side by side under identical crash injection.

    Runs execute one after another on the calling thread. Run i is
    battery_case(n, derive_seed(seed, i), crash_prob), so it does not
    depend on any other run, and sample_mixed_seed names the first run
    seed whose case ends naive Mixed. A run for which
    settles_top(case.crashes, ack_timeout) holds (ack_timeout > 21 and no
    crash before tick 19) is counted Top for both protocols without being
    simulated, and each of its crashes is counted at DONE and post_ack, as
    a simulation logs it; any other run is simulated. `workers` is accepted
    and ignored: the report is the same for every value.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    bilateral_config = BilateralConfig(ack_timeout=ack_timeout)
    naive_config = NaiveCheckpointConfig(boundary_time=boundary_time)
    naive_t = ClassTallies()
    bilat_t = ClassTallies()
    coverage: dict[str, int] = {}
    sample: int | None = None
    for i in range(runs):
        case = battery_case(n, derive_seed(seed, i), crash_prob)
        if settles_top(case.crashes, ack_timeout):
            naive_t.top += 1
            bilat_t.top += 1
            if case.crashes:  # a crash-free run adds no coverage key
                late = len(case.crashes)
                coverage["DONE"] = coverage.get("DONE", 0) + late
                coverage["post_ack"] = coverage.get("post_ack", 0) + late
            continue

        sim_b = case.simulation()
        out_b = run_bilateral(sim_b, bilateral_config, crashes=case.crashes)
        bilat_t.add(out_b)
        # Only a component in the crash schedule, which names each at most
        # once, has a crash log.
        for name, _ in case.crashes:
            for rec in sim_b.components[name].crash_log:
                coverage[rec.stage] = coverage.get(rec.stage, 0) + 1
                if rec.acked:
                    coverage["post_ack"] = coverage.get("post_ack", 0) + 1

        out_n = run_naive(case.simulation(), naive_config, crashes=case.crashes)
        naive_t.add(out_n)
        if sample is None and out_n.vector_class is AtomicityClass.MIXED:
            sample = case.seed
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
    # Refuse any invalid alpha before the first run. The models are built
    # again in the loop, so at most one built schedule is alive at a time.
    for alpha in alphas:
        RetryModel(base_failure_prob=p0, amplification=alpha, max_attempts=max_attempts)
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
