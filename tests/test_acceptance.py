"""End-to-end acceptance gate: ten headline checks with pinned tolerances.

Each test prints a single summary line on success so a -s run reads as a
checklist. Tolerances are fixed here and must not be loosened to pass.
"""

from __future__ import annotations

import io
import time

import numpy as np
import pytest

import epochsim as es
from epochsim.cli import main as cli_main

from oracles import ScalarAdamW, geometric_mean_attempts


def _cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = cli_main(list(argv), stdout=buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# 1. analytic reliability table, 3 decimal places, under a second
# ---------------------------------------------------------------------------


def test_criterion_1_reference_table():
    t0 = time.perf_counter()
    code, out = _cli("lattice-table", "--trials", "0", "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0
    import json
    rows = json.loads(out)["rows"]
    want = {(0.999, 1000): 0.368, (0.999, 4000): 0.018,
            (0.9999, 4000): 0.670, (0.9999, 10000): 0.368,
            (0.99999, 10000): 0.905}
    assert len(rows) == 5
    for row in rows:
        ref = want[(row["q"], row["n"])]
        assert round(row["pr_atomic"], 3) == ref, row
        assert row["matches"]
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    # At every reference row (1-q)^n is below 1e-3000, so the table above is
    # q^n alone. At q=0.6, n=2 the BottomAll term shows: 0.36 + 0.16.
    code, out = _cli("lattice-table", "--q", "0.6", "--n", "2", "--trials", "0",
                     "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert round(row["pr_atomic"], 3) == 0.520, row
    print(f"criterion 1: PASS table 5/5 at 3dp in {elapsed * 1000:.0f}ms; "
          f"q=0.6 n=2 reads {row['pr_atomic']:.3f}")


# ---------------------------------------------------------------------------
# 2. 10^6-trial Monte Carlo within 4 standard errors per row
# ---------------------------------------------------------------------------


def test_criterion_2_monte_carlo_agreement():
    worst = 0.0
    for i, row in enumerate(es.reliability_table()):
        params = es.BinaryModelParams(q=row.q, n=row.n)
        t0 = time.perf_counter()
        res = es.monte_carlo_atomicity(params, trials=1_000_000,
                                       seed=es.derive_seed(2024, i))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"row {i} took {elapsed:.1f}s"
        observed = res.pr_atomic
        stderr = res.stderr_atomic or 1e-9
        z = abs(observed - row.pr_atomic) / stderr
        worst = max(worst, z)
        assert z < 4.0, (row.q, row.n, observed, row.pr_atomic, z)
    print(f"criterion 2: PASS 5 rows at 10^6 trials, worst |z| = {worst:.2f}")


# ---------------------------------------------------------------------------
# 3. mixed witnesses on 100 boundaries x n in {2, 8, 64}; clean control
# ---------------------------------------------------------------------------


def test_criterion_3_witness_grid():
    grid = es.boundary_grid(100, t_max=1_000_000, seed=7)
    hits = 0
    for n in (2, 8, 64):
        for t_c in grid:
            w = es.witness_mixed(n, t_c, seed=1)
            assert w.outcome.vector_class is es.AtomicityClass.MIXED
            hits += 1
    assert hits == 300

    control_mixed = 0
    for n in (2, 8, 64):
        for t_c in grid:
            _, out = es.straddle_trial(n, t_c, seed=1, crash=False)
            if out.vector_class is es.AtomicityClass.MIXED:
                control_mixed += 1
    assert control_mixed == 0
    print("criterion 3: PASS witnesses 300/300 mixed, control 0/300")


# ---------------------------------------------------------------------------
# 4. bilateral all-or-nothing over 10^4 crash-injected runs
# ---------------------------------------------------------------------------


def test_criterion_4_bilateral_battery():
    report = es.compare_protocols(n=4, runs=10_000, seed=90210, workers=4)
    stages = {s.name for s in es.PersistenceStage}
    covered = set(report.crash_stage_coverage)
    assert stages <= covered, stages - covered
    assert "post_ack" in covered
    assert report.bilateral.mixed == 0
    assert report.bilateral.disagreements == 0
    assert report.naive.mixed > 0
    assert report.naive.disagreements > 0
    print(f"criterion 4: PASS bilateral 0 mixed / naive "
          f"{report.naive.mixed} mixed, {report.naive.disagreements} "
          f"disagreements over 10^4 runs")


# ---------------------------------------------------------------------------
# 5. one-step moment skew closed form
# ---------------------------------------------------------------------------


def test_criterion_5_moment_skew():
    rng = np.random.default_rng(99)
    for beta1 in (0.5, 0.9, 0.99):
        hyper = es.AdamWHyperparams(beta1=beta1)
        for g in (np.array([1.0]), rng.standard_normal(8)):
            pair = es.make_skew_pair(g, hyper, epoch=2)
            observed = es.skew_consistency_check(pair, g, hyper)
            expected = beta1 * (1.0 - beta1) * g
            assert np.max(np.abs(observed - expected)) <= 1e-12, beta1
    point_nine = es.moment_skew(np.array([1.0]), 0.9)[0]
    assert abs(point_nine - 0.09) <= 1e-12
    print("criterion 5: PASS skew = beta1(1-beta1)g for all cases; "
          "0.09 at beta1=0.9")


# ---------------------------------------------------------------------------
# 6. trajectory divergence: first-step closed form, nonzero at horizon 50
# ---------------------------------------------------------------------------


def test_criterion_6_trajectory_divergence():
    hyper = es.AdamWHyperparams(lr=0.05, beta1=0.9)
    task = es.QuadraticTask.of([2.0], [0.0], noise_scale=0.0, seed=0)
    k, horizon = 3, 50
    series = es.trajectory_divergence(task, hyper, skew_epoch=k,
                                      horizon=horizon, w0=[1.0])

    # independent one-step oracle via the scalar recursion
    oracle = ScalarAdamW(lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    w = m = v = None
    w, m, v = 1.0, 0.0, 0.0
    hist = [(w, m, v)]
    for t in range(1, k + 1):
        g = 2.0 * (w - 0.0)
        w, m, v = oracle.step(w, m, v, g, t)
        hist.append((w, m, v))
    w_k, m_k, v_k = hist[k]
    _, m_prev, _ = hist[k - 1]
    g = 2.0 * w_k
    t = k + 1
    w_ref, _, _ = oracle.step(w_k, m_k, v_k, g, t)
    w_mix, _, _ = oracle.step(w_k, m_prev, v_k, g, t)
    want = abs(w_ref - w_mix)
    got = series.rows[k + 1].distance
    assert got == pytest.approx(want, abs=1e-10), (got, want)
    assert series.rows[horizon].distance > 0.0
    print(f"criterion 6: PASS first post-skew step {got:.3e} matches oracle; "
          f"horizon-50 distance {series.rows[horizon].distance:.3e} > 0")


# ---------------------------------------------------------------------------
# 7. vector update vs independent scalar recursion
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalence():
    hyper = es.AdamWHyperparams(lr=0.03, beta1=0.9, beta2=0.999, eps=1e-8,
                                weight_decay=0.01)
    oracle = ScalarAdamW(lr=0.03, beta1=0.9, beta2=0.999, eps=1e-8,
                         weight_decay=0.01)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dim = 5
        state = es.initial_state(dim, w0=rng.standard_normal(dim))
        shadow = [(float(state.w[i]), 0.0, 0.0) for i in range(dim)]
        for t in range(1, 101):
            g = rng.standard_normal(dim)
            state = es.adamw_step(state, g, hyper)
            shadow = [oracle.step(w, m, v, float(g[i]), t)
                      for i, (w, m, v) in enumerate(shadow)]
            for i, (w, m, v) in enumerate(shadow):
                err = max(abs(state.w[i] - w), abs(state.m[i] - m),
                          abs(state.v[i] - v))
                worst = max(worst, err)
                assert err <= 1e-12, (seed, t, i, err)
    print(f"criterion 7: PASS 10 seeds x 100 steps, worst "
          f"elementwise error {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. retry mean attempts: geometric at alpha=1, amplified at alpha=1.5
# ---------------------------------------------------------------------------


def test_criterion_8_retry_amplification():
    p0, n, runs = 0.1, 10, 10_000
    summaries = es.retry_sweep(p0, n, [1.0, 1.5], runs=runs, seed=4242)
    flat, amplified = summaries
    # closed form written out here, independent of the package's helper
    closed = 1.0 / (1.0 - (1.0 - (1.0 - p0) ** n))
    assert closed == pytest.approx(geometric_mean_attempts(p0, n), abs=1e-12)
    rel = abs(flat.mean_attempts - closed) / closed
    assert rel < 0.05, (flat.mean_attempts, closed, rel)
    assert amplified.mean_attempts > flat.mean_attempts
    # Both sweep means against the exact law, capped at 40 attempts.
    assert _capped_attempts_law(p0, n, 1.5, 40) == pytest.approx((19.719, 19.257), abs=1e-3)
    zs = []
    for summary in summaries:
        mean, sd = _capped_attempts_law(p0, n, summary.alpha, 40)
        z = (summary.mean_attempts - mean) / (sd / runs ** 0.5)
        assert abs(z) < 4.0, (summary.alpha, summary.mean_attempts, mean, z)
        zs.append(z)
    print(f"criterion 8: PASS alpha=1 mean {flat.mean_attempts:.3f} vs "
          f"closed form {closed:.3f} ({100 * rel:.2f}%); alpha=1.5 mean "
          f"{amplified.mean_attempts:.3f} exceeds; exact-law z = "
          f"{zs[0]:+.2f}, {zs[1]:+.2f}")


def _capped_attempts_law(p0: float, n: int, alpha: float, cap: int) -> tuple[float, float]:
    """Mean and sd of the attempt count A of an amplified retry loop.

    Attempt j succeeds with s_j = (1 - min(1, p0 alpha^(j-1)))^n, so
    P(A >= k) = prod_{j<k} (1 - s_j) for k <= cap, and A never exceeds cap.
    E[A] = sum_k P(A >= k) and E[A^2] = sum_k (2k - 1) P(A >= k).
    """
    tail = 1.0
    mean = square = 0.0
    for k in range(1, cap + 1):
        mean += tail
        square += (2 * k - 1) * tail
        tail *= 1.0 - (1.0 - min(1.0, p0 * alpha ** (k - 1))) ** n
    return mean, (square - mean * mean) ** 0.5


# ---------------------------------------------------------------------------
# 9. deploy contrast under a 10^4-schedule budget
# ---------------------------------------------------------------------------


def test_criterion_9_deploy_contrast():
    budget = 10_000
    for n in (2, 16):
        found = es.search_schedules(
            es.run_case_naive,
            lambda rep: len(rep.mixed) > 0,
            budget=budget,
            candidates=es.deploy_candidates(n, seed=31))
        assert found.found, f"no naive witness for n={n}"

        cases = es.deploy_candidates(n, seed=31)
        consensus_mixed = 0
        for _ in range(budget):
            rep = es.run_case_consensus(next(cases))
            consensus_mixed += len(rep.mixed)
        assert consensus_mixed == 0, f"n={n}: {consensus_mixed} mixed"
    print("criterion 9: PASS naive witness found for n in {2, 16}; "
          "consensus 0 mixed over 10^4 schedules each")


# ---------------------------------------------------------------------------
# 10. byte-identical reruns and matching trace hashes
# ---------------------------------------------------------------------------


def test_criterion_10_determinism():
    commands = [
        ("lattice-table", "--trials", "1000"),
        ("straddle", "--grid", "10"),
        ("bilateral-vs-naive", "--runs", "150", "--n", "3"),
        ("adamw-skew", "--horizon", "25"),
        ("retry", "--runs", "400"),
        ("deploy", "--budget", "8"),
    ]
    for argv in commands:
        for fmt in ("csv", "json"):
            a = _cli(*argv, "--seed", "11", "--format", fmt)
            b = _cli(*argv, "--seed", "11", "--format", fmt)
            assert a == b, (argv, fmt)
            assert a[0] == 0, (argv, fmt, a)

    _, out_a = es.straddle_trial(4, 500, seed=8)
    _, out_b = es.straddle_trial(4, 500, seed=8)
    assert out_a.trace.hash64() == out_b.trace.hash64()

    bi_a = es.run_bilateral(es.new_simulation(3, es.UniformDelay(1, 3), seed=6),
                            es.BilateralConfig())
    bi_b = es.run_bilateral(es.new_simulation(3, es.UniformDelay(1, 3), seed=6),
                            es.BilateralConfig())
    assert bi_a.trace.hash64() == bi_b.trace.hash64()
    print("criterion 10: PASS byte-identical reruns for 6 commands x 2 "
          "formats; trace hashes stable")
