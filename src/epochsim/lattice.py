"""Epoch lattice: per-component epoch symbols, vector classification, and
the probability that an n-component cluster lands in a mixed state.

Each component's durable state relative to a transition e-1 -> e is one of
three symbols: e (committed), e-1 (prior), or bottom (ambiguous). Symbols
are ordered e-1 < bottom < e; vectors over n components form the product
lattice with componentwise join and meet. A vector is Top when every entry
is e, BottomAll when every entry is e-1, and Mixed otherwise; any bottom
entry forces Mixed.

Under independent per-component outcomes the probability of an atomic
outcome decays geometrically in n, which is the quantitative core of the
package: pr_mixed = 1 - q^n - (1-q)^n in the binary model, and in the
ternary model pr[atomic] <= q^n + p^n while pr[all committed] <= q^n.

The reference table's component counts are realistic for sharded training
jobs: a deployment spanning thousands of parameter, optimizer, and data
shards easily reaches n >= 4000 persisting components per transition, at
which point even q = 0.999 leaves atomic completion unlikely. The counts
are inputs here, not derived from a parallelism configuration model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class LatticeError(ValueError):
    pass


class EpochSymbol(Enum):
    """Durable epoch content of one component, ordered E_MINUS_1 < BOTTOM < E."""

    E_MINUS_1 = "e-1"
    BOTTOM = "bottom"
    E = "e"

    @property
    def rank(self) -> int:
        return _RANK[self]


_RANK = {EpochSymbol.E_MINUS_1: 0, EpochSymbol.BOTTOM: 1, EpochSymbol.E: 2}
_BY_RANK = {v: k for k, v in _RANK.items()}


class AtomicityClass(str, Enum):
    TOP = "top"
    BOTTOM_ALL = "bottom_all"
    MIXED = "mixed"


# Members classify reads once per vector, bound once: a global name is about
# ten times cheaper to read than a lookup through the enum class.
_E = EpochSymbol.E
_E_MINUS_1 = EpochSymbol.E_MINUS_1
_TOP = AtomicityClass.TOP
_BOTTOM_ALL = AtomicityClass.BOTTOM_ALL
_MIXED = AtomicityClass.MIXED


@dataclass(frozen=True)
class EpochVector:
    entries: tuple[EpochSymbol, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise LatticeError("epoch vector must have at least one entry")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def of(cls, symbols: Iterable[EpochSymbol]) -> EpochVector:
        return cls(tuple(symbols))

    def classify(self) -> AtomicityClass:
        # Top or BottomAll iff every entry is the first, and that one is e or e-1.
        entries = self.entries
        first = entries[0]
        if (first is _E or first is _E_MINUS_1) and entries.count(first) == len(entries):
            return _TOP if first is _E else _BOTTOM_ALL
        return _MIXED

    def to_json_obj(self) -> list[str]:
        return [s.value for s in self.entries]


def _check_same_length(a: EpochVector, b: EpochVector) -> None:
    if len(a) != len(b):
        raise LatticeError(f"length mismatch: {len(a)} vs {len(b)}")


def join(a: EpochVector, b: EpochVector) -> EpochVector:
    """Componentwise least upper bound."""
    _check_same_length(a, b)
    return EpochVector(tuple(
        _BY_RANK[max(x.rank, y.rank)] for x, y in zip(a.entries, b.entries)))


def meet(a: EpochVector, b: EpochVector) -> EpochVector:
    """Componentwise greatest lower bound."""
    _check_same_length(a, b)
    return EpochVector(tuple(
        _BY_RANK[min(x.rank, y.rank)] for x, y in zip(a.entries, b.entries)))


# ---------------------------------------------------------------------------
# Probability models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryModelParams:
    """Each component independently commits with probability q, else reverts."""

    q: float
    n: int

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise LatticeError("q must lie strictly between 0 and 1")
        if self.n < 1:
            raise LatticeError("n must be at least 1")


@dataclass(frozen=True)
class TernaryModelParams:
    """Independent outcomes: commit q, revert p, ambiguous r = 1 - q - p."""

    q: float
    p: float
    n: int

    def __post_init__(self) -> None:
        r = self.r
        if min(self.q, self.p, r) <= 0.0:
            raise LatticeError("q, p, and r = 1 - q - p must all be positive")
        if self.n < 1:
            raise LatticeError("n must be at least 1")

    @property
    def r(self) -> float:
        return 1.0 - self.q - self.p


def pr_atomic_binary(params: BinaryModelParams) -> float:
    """Probability the vector is Top or BottomAll in the binary model."""
    return params.q ** params.n + (1.0 - params.q) ** params.n


def pr_mixed_analytic(params: BinaryModelParams) -> float:
    """Probability of a mixed vector: 1 - q^n - (1-q)^n."""
    return 1.0 - params.q ** params.n - (1.0 - params.q) ** params.n


@dataclass(frozen=True)
class TernaryBounds:
    atomic_bound: float       # pr[Top or BottomAll] <= q^n + p^n
    operational_bound: float  # pr[Top] <= q^n


def pr_atomic_ternary(params: TernaryModelParams) -> TernaryBounds:
    return TernaryBounds(
        atomic_bound=params.q ** params.n + params.p ** params.n,
        operational_bound=params.q ** params.n,
    )


# ---------------------------------------------------------------------------
# Monte Carlo validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    trials: int
    seed: int
    top: int
    bottom_all: int
    mixed: int
    pr_top: float
    pr_bottom_all: float
    pr_mixed: float
    stderr_top: float
    stderr_bottom_all: float
    stderr_mixed: float

    @property
    def pr_atomic(self) -> float:
        return (self.top + self.bottom_all) / self.trials

    @property
    def stderr_atomic(self) -> float:
        return _stderr(self.pr_atomic, self.trials)


def _stderr(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def monte_carlo_atomicity(params: BinaryModelParams | TernaryModelParams,
                          trials: int, seed: int) -> MonteCarloResult:
    """Seeded sampling of i.i.d. epoch vectors, classified and tallied.

    Classification depends only on the per-symbol counts of a vector, so
    trials sample the counts directly (binomial or multinomial), which keeps
    n = 10^4 with 10^6 trials tractable. The estimate is independent of the
    closed forms and serves as their cross-check.
    """
    if trials < 1:
        raise LatticeError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = params.n
    if isinstance(params, BinaryModelParams):
        committed = rng.binomial(n, params.q, size=trials)
        top = int(np.count_nonzero(committed == n))
        bottom = int(np.count_nonzero(committed == 0))
    else:
        counts = rng.multinomial(n, [params.q, params.p, params.r], size=trials)
        top = int(np.count_nonzero(counts[:, 0] == n))
        bottom = int(np.count_nonzero(counts[:, 1] == n))
    mixed = trials - top - bottom
    pt, pb, pm = top / trials, bottom / trials, mixed / trials
    return MonteCarloResult(
        trials=trials, seed=seed, top=top, bottom_all=bottom, mixed=mixed,
        pr_top=pt, pr_bottom_all=pb, pr_mixed=pm,
        stderr_top=_stderr(pt, trials),
        stderr_bottom_all=_stderr(pb, trials),
        stderr_mixed=_stderr(pm, trials),
    )


# ---------------------------------------------------------------------------
# Reliability table
# ---------------------------------------------------------------------------

# Known three-decimal reference values for pr[atomic] at these points.
REFERENCE_ATOMICITY_3DP: tuple[tuple[float, int, float], ...] = (
    (0.999, 1_000, 0.368),
    (0.999, 4_000, 0.018),
    (0.9999, 4_000, 0.670),
    (0.9999, 10_000, 0.368),
    (0.99999, 10_000, 0.905),
)


@dataclass(frozen=True)
class ReliabilityRow:
    q: float
    n: int
    pr_atomic: float
    reference_3dp: float | None = None

    @property
    def matches_reference(self) -> bool:
        if self.reference_3dp is None:
            return True
        return round(self.pr_atomic, 3) == self.reference_3dp


def reliability_row(q: float, n: int) -> ReliabilityRow:
    ref = next((r for (rq, rn, r) in REFERENCE_ATOMICITY_3DP
                if rq == q and rn == n), None)
    return ReliabilityRow(q=q, n=n,
                          pr_atomic=pr_atomic_binary(BinaryModelParams(q=q, n=n)),
                          reference_3dp=ref)


def reliability_table() -> list[ReliabilityRow]:
    """Analytic pr[atomic] at the five reference (q, n) points."""
    return [reliability_row(q, n) for (q, n, _) in REFERENCE_ATOMICITY_3DP]


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------


def render_table_text(rows: Sequence[ReliabilityRow],
                      mc: Sequence[MonteCarloResult] | None = None) -> str:
    lines = []
    header = f"{'q':>10} {'n':>7} {'pr_atomic':>11} {'ref':>7} {'match':>6}"
    if mc:
        header += f" {'mc_atomic':>10} {'mc_stderr':>10}"
    lines.append(header)
    for i, row in enumerate(rows):
        ref = f"{row.reference_3dp:.3f}" if row.reference_3dp is not None else "-"
        line = (f"{row.q:>10g} {row.n:>7d} {row.pr_atomic:>11.6f} "
                f"{ref:>7} {str(row.matches_reference).lower():>6}")
        if mc:
            line += f" {mc[i].pr_atomic:>10.6f} {mc[i].stderr_atomic:>10.6f}"
        lines.append(line)
    return "\n".join(lines)
