"""Constructive adversary: schedules that straddle a declared boundary.

The existence claim behind the whole package is constructive: for any
cluster size n >= 2 and any feasible boundary time t_c there is an
admissible schedule in which one component completes its persist strictly
before t_c while a designated component j begins before t_c and completes
after it. Crashing j at t_c then leaves j on the prior epoch (or
ambiguous) while the early completer is committed, so the stable vector is
Mixed even though the naive protocol declared the transition committed.

construct_straddling builds such a schedule with explicit per-message
delays and per-stage durations; witness_mixed runs it under the naive
protocol with the crash injected and asserts the Mixed outcome, raising
WitnessFalsification otherwise. search_schedules is the generic falsifier
loop: directed candidates first, then seeded random ones.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .kernel import AdversarialSchedule, _cluster_names, new_simulation
from .lattice import AtomicityClass, EpochVector
from .persistence import ACTIVE_STAGE_NAMES
from .protocols import NaiveCheckpointConfig, ProtocolOutcome, run_naive

# Earliest boundary with room for a full early completer: delivery at t=1
# plus one tick per active stage finishes at t=6, so t_c >= 7.
FULL_STRADDLE_THRESHOLD = 2 + len(ACTIVE_STAGE_NAMES)
# Earliest boundary any straddle fits: the target must begin at t_c - 1 >= 1.
MIN_BOUNDARY = 2
# The stage the target's persist straddles t_c in when the boundary leaves
# room for the stages before it; otherwise it straddles the first stage.
_STRADDLED_STAGE = ACTIVE_STAGE_NAMES.index("WRITE_SYSCALL")


class WitnessFalsification(AssertionError):
    """A constructed witness failed to produce the promised mixed state."""


@dataclass(frozen=True)
class StraddlingSchedule:
    """Explicit schedule in which component j's persist spans t_c.

    Only the target is retimed: its checkpoint is delivered at begin_target
    and its active stages take stage_durations ticks, in stage order. Every
    other component keeps AdversarialSchedule's one-tick defaults, so it is
    delivered at t=1 and completes at FULL_STRADDLE_THRESHOLD - 1 = 6.
    """

    n: int
    target: int  # index j of the straddling component
    boundary: int  # t_c
    begin_target: int
    stage_durations: tuple[int, ...]

    @property
    def target_name(self) -> str:
        return _cluster_names("c", self.n)[self.target]

    @property
    def complete_target(self) -> int:
        return self.begin_target + sum(self.stage_durations)

    @property
    def early_complete_time(self) -> int | None:
        return FULL_STRADDLE_THRESHOLD - 1 if self.boundary >= FULL_STRADDLE_THRESHOLD else None

    @property
    def early_completer(self) -> str | None:
        if self.early_complete_time is None:
            return None
        return _cluster_names("c", self.n)[1 if self.target == 0 else 0]

    def delay_policy(self) -> AdversarialSchedule:
        name = self.target_name
        return AdversarialSchedule(
            message_delays={(name, "checkpoint"): self.begin_target},
            stage_durations={(name, s): d
                             for s, d in zip(ACTIVE_STAGE_NAMES, self.stage_durations)},
        )

    def check_invariants(self) -> None:
        if not (self.begin_target < self.boundary < self.complete_target):
            raise WitnessFalsification(
                f"persist of {self.target_name} does not straddle t_c={self.boundary}: "
                f"[{self.begin_target}, {self.complete_target}]")
        if self.boundary >= FULL_STRADDLE_THRESHOLD:
            if self.early_complete_time is None or self.early_complete_time >= self.boundary:
                raise WitnessFalsification("no component completes before the boundary")


def construct_straddling(n: int, j: int, t_c: int) -> StraddlingSchedule:
    """Build a schedule where component j's persist spans the boundary t_c.

    All other components keep the one-tick defaults and complete at t=6;
    for t_c >= 7 that satisfies the early-completer requirement. The target
    j is timed so t_c falls strictly inside one of its stages: mid write
    syscall when the boundary leaves room (t_c >= 4), otherwise mid buffer
    flush. That stage takes two ticks and every other one tick, and j's
    checkpoint lands at t_c - (the stage's index + 1), so the stages before
    it end at t_c - 1 and it ends at t_c + 1.
    """
    if n < 2:
        raise ValueError("a straddle requires at least two components")
    if not (0 <= j < n):
        raise ValueError(f"target index {j} out of range for n={n}")
    if t_c < MIN_BOUNDARY:
        raise ValueError(
            f"boundary t_c={t_c} leaves no room for a positive-duration stage before it")
    straddled = _STRADDLED_STAGE if t_c > _STRADDLED_STAGE + 1 else 0
    per_stage = tuple(2 if i == straddled else 1 for i in range(len(ACTIVE_STAGE_NAMES)))
    schedule = StraddlingSchedule(n=n, target=j, boundary=t_c,
                                  begin_target=t_c - (straddled + 1),
                                  stage_durations=per_stage)
    schedule.check_invariants()
    return schedule


@dataclass
class MixedWitness:
    schedule: StraddlingSchedule
    crash: tuple[str, int]
    outcome: ProtocolOutcome

    @property
    def vector(self) -> EpochVector:
        return self.outcome.final_vector

    def narrative(self) -> str:
        s = self.schedule
        lines = [
            f"boundary declared at t_c={s.boundary}; {s.n} components, target {s.target_name}",
        ]
        if s.early_completer:
            lines.append(
                f"t={s.early_complete_time}: {s.early_completer} completes its persist "
                f"(committed before the boundary)")
        lines.append(
            f"t={s.begin_target}: {s.target_name} begins persisting "
            f"(will not finish until t={s.complete_target})")
        lines.append(
            f"t={self.crash[1]}: {s.target_name} crashes mid-persist; the declaration "
            f"at t_c={s.boundary} still claims committed")
        symbols = ", ".join(f"{name}={sym.value}"
                            for name, sym in zip(_cluster_names("c", s.n), self.vector))
        lines.append(f"stable vector after recovery: [{symbols}] -> "
                     f"{self.outcome.vector_class.value}")
        return "\n".join(lines)


def straddle_trial(n: int, t_c: int, *, j: int | None = None, seed: int = 0,
                   crash_time: int | None = None,
                   crash: bool = True) -> tuple[StraddlingSchedule, ProtocolOutcome]:
    """Run the naive protocol under a straddling schedule.

    With crash enabled the target is crashed at crash_time (default t_c).
    With crash disabled the same schedule runs undisturbed, which is the
    negative control: the stable vector must come out Top.
    """
    if j is None:
        j = n - 1
    schedule = construct_straddling(n, j, t_c)
    sim = new_simulation(n, schedule.delay_policy(), seed)
    crashes = []
    if crash:
        crashes = [(schedule.target_name, t_c if crash_time is None else crash_time)]
    outcome = run_naive(sim, NaiveCheckpointConfig(boundary_time=t_c),
                        crashes=crashes)
    return schedule, outcome


def witness_mixed(n: int, t_c: int, *, j: int | None = None,
                  seed: int = 0) -> MixedWitness:
    """Crash the straddler at t_c and assert the stable vector is Mixed."""
    schedule, outcome = straddle_trial(n, t_c, j=j, seed=seed, crash=True)
    if outcome.vector_class is not AtomicityClass.MIXED:
        raise WitnessFalsification(
            f"expected a mixed vector at n={n}, t_c={t_c}; got "
            f"{outcome.vector_class.value} {outcome.final_vector.to_json_obj()}")
    return MixedWitness(schedule=schedule,
                        crash=(schedule.target_name, t_c),
                        outcome=outcome)


def boundary_grid(count: int, *, t_max: int = 1_000_000, seed: int = 0) -> list[int]:
    """Seeded sample of count distinct boundary times in [8, t_max).

    Every boundary lies above the full-straddle threshold and below t_max;
    a count larger than the number of such boundaries, or more boundaries
    than random.sample can index (sys.maxsize), is rejected before anything
    is sampled.
    """
    if count < 1:
        raise ValueError("grid size must be at least 1")
    lo = FULL_STRADDLE_THRESHOLD + 1
    available = max(0, t_max - lo)
    if available > sys.maxsize:
        raise ValueError(f"t_max must be at most {lo + sys.maxsize}, got {t_max}")
    if count > available:
        raise ValueError(f"grid size {count} exceeds the {available} boundary times "
                         f"from {lo} up to t_max={t_max}")
    rng = random.Random(seed)
    return sorted(rng.sample(range(lo, t_max), count))


@dataclass
class SearchResult:
    found: bool
    tried: int
    candidate: Any | None = None
    witness: Any | None = None


def search_schedules(run_candidate: Callable[[Any], Any],
                     predicate: Callable[[Any], bool],
                     budget: int,
                     candidates: Iterable[Any]) -> SearchResult:
    """Try candidates in order until the predicate holds or budget runs out.

    Callers supply the candidate stream; interleaving directed
    constructions before random ones makes the search constructive rather
    than hopeful. Returns the first witness found.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    tried = 0
    for cand in itertools.islice(candidates, budget):
        tried += 1
        result = run_candidate(cand)
        if predicate(result):
            return SearchResult(found=True, tried=tried, candidate=cand, witness=result)
    return SearchResult(found=False, tried=tried)
