"""Epoch lattice algebra, analytic model, and Monte Carlo agreement."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epochsim.kernel import FixedDelay, new_simulation
from epochsim.protocols import derive_seed

from epochsim.lattice import (
    AtomicityClass,
    BinaryModelParams,
    EpochSymbol,
    EpochVector,
    LatticeError,
    TernaryModelParams,
    join,
    meet,
    monte_carlo_atomicity,
    pr_atomic_binary,
    pr_atomic_ternary,
    pr_mixed_analytic,
    reliability_row,
    reliability_table,
)

from oracles import enumerate_binary, enumerate_ternary

symbols = st.sampled_from(list(EpochSymbol))
vectors = st.lists(symbols, min_size=1, max_size=8).map(EpochVector.of)


def _pair(draw_len: int):
    return st.tuples(
        st.lists(symbols, min_size=draw_len, max_size=draw_len).map(EpochVector.of),
        st.lists(symbols, min_size=draw_len, max_size=draw_len).map(EpochVector.of),
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_three_exemplars():
    e, em, bot = EpochSymbol.E, EpochSymbol.E_MINUS_1, EpochSymbol.BOTTOM
    assert EpochVector.of([e, e, e]).classify() is AtomicityClass.TOP
    assert EpochVector.of([em, em]).classify() is AtomicityClass.BOTTOM_ALL
    assert EpochVector.of([e, em]).classify() is AtomicityClass.MIXED
    assert EpochVector.of([e, bot]).classify() is AtomicityClass.MIXED
    assert EpochVector.of([bot]).classify() is AtomicityClass.MIXED


def test_any_bottom_is_mixed():
    bot = EpochSymbol.BOTTOM
    assert EpochVector.of([bot, bot]).classify() is AtomicityClass.MIXED


def test_empty_vector_rejected():
    with pytest.raises(LatticeError):
        EpochVector.of([])


@given(vectors)
def test_classify_matches_first_principles(vec):
    kinds = set(vec.entries)
    if kinds == {EpochSymbol.E}:
        want = AtomicityClass.TOP
    elif kinds == {EpochSymbol.E_MINUS_1}:
        want = AtomicityClass.BOTTOM_ALL
    else:
        want = AtomicityClass.MIXED
    assert vec.classify() is want


# ---------------------------------------------------------------------------
# join / meet lattice laws
# ---------------------------------------------------------------------------


@given(_pair(4))
def test_join_meet_commute(pair):
    a, b = pair
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)


@given(_pair(3))
def test_absorption_laws(pair):
    a, b = pair
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a


@given(vectors)
def test_join_meet_idempotent(vec):
    assert join(vec, vec) == vec
    assert meet(vec, vec) == vec


def _uniform(symbol: EpochSymbol, n: int) -> EpochVector:
    return EpochVector.of([symbol] * n)


@given(vectors)
def test_top_and_bottom_are_units(vec):
    n = len(vec.entries)
    top, bottom_all = _uniform(EpochSymbol.E, n), _uniform(EpochSymbol.E_MINUS_1, n)
    assert join(vec, bottom_all).entries == tuple(
        s if s is not EpochSymbol.E_MINUS_1 else EpochSymbol.E_MINUS_1
        for s in vec.entries)
    assert join(vec, top) == top
    assert meet(vec, bottom_all) == bottom_all
    assert meet(vec, top) == vec


def test_length_mismatch_raises():
    with pytest.raises(LatticeError):
        join(_uniform(EpochSymbol.E, 2), _uniform(EpochSymbol.E, 3))
    with pytest.raises(LatticeError):
        meet(_uniform(EpochSymbol.E, 2), _uniform(EpochSymbol.E, 3))


def test_symbol_order():
    assert (EpochSymbol.E_MINUS_1.rank
            < EpochSymbol.BOTTOM.rank
            < EpochSymbol.E.rank)


# ---------------------------------------------------------------------------
# analytic model vs brute-force enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,n", [(0.9, 1), (0.9, 2), (0.5, 3), (0.99, 4),
                                 (0.1, 5), (0.7, 6)])
def test_binary_model_matches_enumeration(q, n):
    top, bot, mix = enumerate_binary(q, n)
    params = BinaryModelParams(q=q, n=n)
    assert pr_atomic_binary(params) == pytest.approx(top + bot, abs=1e-12)
    assert pr_mixed_analytic(params) == pytest.approx(mix, abs=1e-12)


@pytest.mark.parametrize("q,p,n", [(0.8, 0.15, 2), (0.5, 0.3, 3),
                                   (0.9, 0.05, 4)])
def test_ternary_bounds_match_enumeration(q, p, n):
    top, bot, _ = enumerate_ternary(q, p, n)
    bounds = pr_atomic_ternary(TernaryModelParams(q=q, p=p, n=n))
    assert bounds.atomic_bound == pytest.approx(top + bot, abs=1e-12)
    assert bounds.operational_bound == pytest.approx(top, abs=1e-12)


def test_atomicity_strictly_decreases_in_n():
    probs = [pr_atomic_binary(BinaryModelParams(q=0.999, n=n))
             for n in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_atomicity_vanishes_for_large_n():
    # fixed q < 1: both q^n and (1-q)^n collapse, so mixing is certain
    tiny = pr_atomic_binary(BinaryModelParams(q=0.999, n=1_000_000))
    assert tiny < 1e-300
    assert pr_mixed_analytic(BinaryModelParams(q=0.999, n=1_000_000)) > 1 - 1e-12


def test_log_domain_power_agrees_with_direct():
    # pr_atomic_binary equals the direct sum q^n + (1-q)^n to within 1e-12
    # relative at n just below and just above 10^4
    lo = pr_atomic_binary(BinaryModelParams(q=0.9999, n=9_999))
    hi = pr_atomic_binary(BinaryModelParams(q=0.9999, n=10_001))
    direct_lo = 0.9999 ** 9_999 + (1 - 0.9999) ** 9_999
    direct_hi = 0.9999 ** 10_001 + (1 - 0.9999) ** 10_001
    assert lo == pytest.approx(direct_lo, rel=1e-12)
    assert hi == pytest.approx(direct_hi, rel=1e-12)


def test_parameter_validation():
    with pytest.raises(LatticeError):
        BinaryModelParams(q=0.0, n=5)
    with pytest.raises(LatticeError):
        BinaryModelParams(q=1.0, n=5)
    with pytest.raises(LatticeError):
        BinaryModelParams(q=0.5, n=0)
    with pytest.raises(LatticeError):
        TernaryModelParams(q=0.6, p=0.4, n=2)  # leaves r = 0


# ---------------------------------------------------------------------------
# reference table
# ---------------------------------------------------------------------------


def test_reference_table_rows_match_at_3dp():
    rows = reliability_table()
    assert len(rows) == 5
    for row in rows:
        assert row.matches_reference, (row.q, row.n, row.pr_atomic)


def test_reference_values_pinned():
    want = {
        (0.999, 1000): 0.368,
        (0.999, 4000): 0.018,
        (0.9999, 4000): 0.670,
        (0.9999, 10000): 0.368,
        (0.99999, 10000): 0.905,
    }
    for (q, n), ref in want.items():
        row = reliability_row(q, n)
        assert row.reference_3dp == ref
        assert round(row.pr_atomic, 3) == ref


def test_exp_approximation_sanity():
    # q^n ~ exp(-n(1-q)) for q near 1; the e^-1 diagonal
    row = reliability_row(0.9999, 10000)
    assert abs(row.pr_atomic - math.exp(-1)) < 0.001


# ---------------------------------------------------------------------------
# Monte Carlo vs analytic (dual route)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,n", [(0.999, 1000), (0.9999, 10000)])
def test_monte_carlo_binary_within_four_stderr(q, n):
    params = BinaryModelParams(q=q, n=n)
    res = monte_carlo_atomicity(params, trials=200_000, seed=11)
    analytic_atomic = pr_atomic_binary(params)
    observed = res.pr_top + res.pr_bottom_all
    stderr = math.sqrt(observed * (1 - observed) / res.trials) or 1e-9
    assert abs(observed - analytic_atomic) < 4 * stderr
    assert abs(res.pr_mixed - pr_mixed_analytic(params)) < 4 * (res.stderr_mixed or 1e-9)


def test_monte_carlo_ternary_within_four_stderr():
    params = TernaryModelParams(q=0.8, p=0.15, n=3)
    res = monte_carlo_atomicity(params, trials=200_000, seed=12)
    top, bot, mix = enumerate_ternary(0.8, 0.15, 3)
    assert abs(res.pr_top - top) < 4 * (res.stderr_top or 1e-9)
    assert abs(res.pr_mixed - mix) < 4 * (res.stderr_mixed or 1e-9)


def test_monte_carlo_reproducible():
    params = BinaryModelParams(q=0.99, n=50)
    a = monte_carlo_atomicity(params, trials=10_000, seed=5)
    b = monte_carlo_atomicity(params, trials=10_000, seed=5)
    assert (a.top, a.bottom_all, a.mixed) == (b.top, b.bottom_all, b.mixed)
    c = monte_carlo_atomicity(params, trials=10_000, seed=6)
    assert (a.top, a.bottom_all, a.mixed) != (c.top, c.bottom_all, c.mixed)


def test_monte_carlo_tallies_partition_trials():
    params = BinaryModelParams(q=0.9, n=4)
    res = monte_carlo_atomicity(params, trials=5_000, seed=1)
    assert res.top + res.bottom_all + res.mixed == res.trials


def test_sim_harvested_vectors_match_binary_model():
    # vectors harvested from kernel runs with independent per-component
    # crashes must reproduce the closed-form tallies; a crash at delivery
    # time lands in BufferFlush, so the component keeps the prior epoch
    q, n, trials = 0.7, 4, 2000
    counts = {c: 0 for c in AtomicityClass}
    for t in range(trials):
        seed = derive_seed(999, t)
        sim = new_simulation(n, FixedDelay(1), seed=seed)
        rng = random.Random(seed)
        for i in range(n):
            sim.send("driver", f"c{i}",
                     {"type": "checkpoint", "epoch": 1, "tentative": False})
        for i in range(n):
            if rng.random() >= q:
                sim.inject_crash(f"c{i}", 1)
        sim.run_until_quiescent()
        vec = EpochVector.of(sim.handler(f"c{i}").state for i in range(n))
        counts[vec.classify()] += 1

    params = BinaryModelParams(q=q, n=n)
    expect = {
        AtomicityClass.TOP: q ** n,
        AtomicityClass.BOTTOM_ALL: (1 - q) ** n,
        AtomicityClass.MIXED: pr_mixed_analytic(params),
    }
    for cls, want in expect.items():
        got = counts[cls] / trials
        stderr = math.sqrt(want * (1 - want) / trials)
        assert abs(got - want) < 4 * stderr, (cls, got, want)
