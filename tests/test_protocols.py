"""Checkpoint protocols: naive broadcast, bilateral commit, retry loops."""

from __future__ import annotations

import inspect
import itertools
import math
import random

import pytest

from epochsim import protocols
from epochsim.adversary import search_schedules
from epochsim.cli import build_parser
from epochsim.kernel import (AdversarialSchedule, ConfigError, FixedDelay, Simulation,
                             UniformDelay, new_simulation)
from epochsim.lattice import AtomicityClass, EpochSymbol
from epochsim.persistence import CrashRecord, PersistenceProcess, PersistenceStage
from epochsim.protocols import (
    BATTERY_DELAY,
    LATEST_DONE,
    BatteryCase,
    BilateralConfig,
    ClassTallies,
    ComparisonReport,
    Decision,
    DecisionLog,
    NaiveCheckpointConfig,
    RetryModel,
    RetryStats,
    battery_case,
    compare_protocols,
    conv_holds,
    derive_seed,
    geometric_baseline,
    retry_sweep,
    run_bilateral,
    run_naive,
    run_retry_loop,
    settles_top,
    snap_holds,
)

from oracles import (
    expected_attempts_truncated,
    geometric_mean_attempts,
    retry_loop,
    success_prob_truncated,
)


# ---------------------------------------------------------------------------
# naive broadcast
# ---------------------------------------------------------------------------


def test_naive_without_crash_is_top():
    sim = new_simulation(3, FixedDelay(1), seed=0)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=10))
    assert out.decision is Decision.COMMITTED
    assert out.vector_class is AtomicityClass.TOP
    assert out.boundary_vector is not None


def test_naive_crash_mid_persist_goes_mixed():
    sim = new_simulation(2, FixedDelay(2), seed=0)
    # c1 stages run (2,4],(4,6],...(10,12]; crash at 9 lands in FSYNC
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=10),
                    crashes=[("c1", 9)])
    assert out.vector_class is AtomicityClass.MIXED
    assert out.final_vector.entries[0] is EpochSymbol.E
    assert out.final_vector.entries[1] is EpochSymbol.BOTTOM
    assert out.disagreement  # declared committed, state is not Top


def test_naive_boundary_vector_snapshots_at_t_c():
    sim = new_simulation(2, FixedDelay(2), seed=0)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=5))
    # at t=5 both are mid-pipeline: stable copies still read e-1
    assert all(s is EpochSymbol.E_MINUS_1 for s in out.boundary_vector.entries)
    # by quiescence both commit
    assert out.vector_class is AtomicityClass.TOP


def test_naive_decision_time_is_boundary():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=7))
    assert out.decision_time == 7


# ---------------------------------------------------------------------------
# bilateral commit: hand-traced schedule, Fixed(1), n=2
#   t=0 tentative checkpoints sent; t=1 delivered; stages 1/tick -> Done t=6
#   acks sent at t=6, arrive t=7 -> commit decided t=7, directives land t=8
#   timer at t=30 finds a decision and does nothing
# ---------------------------------------------------------------------------


def test_bilateral_clean_run_matches_hand_trace():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=30))
    assert out.decision is Decision.COMMITTED
    assert out.decision_time == 7
    assert out.vector_class is AtomicityClass.TOP
    assert not out.disagreement


def test_bilateral_crash_before_ack_rolls_back_everyone():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=30),
                        crashes=[("c1", 3)])
    assert out.decision is Decision.ROLLED_BACK
    assert out.vector_class is AtomicityClass.BOTTOM_ALL
    assert not out.disagreement


def test_bilateral_durable_but_unacked_rolls_back():
    # crash in METADATA_UPDATE: staged bytes survive, ack was never sent,
    # so the decision must be rollback and the vector stays uniform
    sim = new_simulation(2, FixedDelay(2), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=40),
                        crashes=[("c1", 11)])
    assert out.decision is Decision.ROLLED_BACK
    assert out.vector_class is AtomicityClass.BOTTOM_ALL


def test_bilateral_crash_after_ack_still_commits_uniformly():
    # c1 acks at t=6 (Fixed(1)); crashing at t=7 is post-ack, pre-directive.
    # Recovery replays the decision record so the vector converges to Top.
    sim = new_simulation(2, FixedDelay(1), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=30),
                        crashes=[("c1", 7)])
    assert out.decision is Decision.COMMITTED
    assert out.vector_class is AtomicityClass.TOP


def test_participant_down_when_commit_lands_reads_the_log_on_recovery(monkeypatch):
    # Both acks land at t=7 and the coordinator commits. The commit reaches
    # c1 at t=10, while c1 is down (crash at t=9, back at t=15), so only
    # the decision log can bring c1 to E.
    policy = AdversarialSchedule(message_delays={("c1", "commit"): 3},
                                 default_recovery_delay=6)

    def run():
        sim = new_simulation(2, policy, seed=0)
        return sim, run_bilateral(sim, BilateralConfig(ack_timeout=30), crashes=[("c1", 9)])

    sim, out = run()
    assert out.decision is Decision.COMMITTED and out.decision_time == 7
    assert [(r.time, r.dropped) for r in out.trace.records
            if r.target == "c1" and r.payload.get("type") == "commit"] == [(10, True), (18, False)]
    assert sim.handler("c1").state is EpochSymbol.E
    assert out.vector_class is AtomicityClass.TOP
    # A recovery that skips the log leaves c1 at its prior epoch.
    monkeypatch.setattr(PersistenceProcess, "on_recover", lambda self, sim, event: None)
    sim, out = run()
    assert sim.handler("c1").state is EpochSymbol.E_MINUS_1
    assert out.vector_class is AtomicityClass.MIXED


def test_bilateral_rollback_ends_inflight_persists():
    # Fixed(2): checkpoints land at t=2, the timeout rolls back at t=3 and
    # the directives land at t=5, mid-attempt. The rolled-back attempts must
    # not finish, ack, or count c1's crash at t=9 as a crash mid-FSYNC.
    sim = new_simulation(2, FixedDelay(2), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=3), crashes=[("c1", 9)])
    assert out.decision is Decision.ROLLED_BACK
    assert out.decision_time == 3
    assert out.vector_class is AtomicityClass.BOTTOM_ALL
    c0, c1 = sim.handler("c0"), sim.handler("c1")
    assert c0.stage is PersistenceStage.IDLE
    assert not c0.staged_ready and not c0.acked
    assert [r.stage for r in c1.crash_log] == ["IDLE"]
    assert not any(r.kind == "deliver" and r.payload.get("type") == "ready"
                   for r in out.trace.records)


def test_bilateral_ignores_checkpoint_after_rollback():
    # c0's checkpoint takes 6 ticks; the timeout rolls back at t=1 and the
    # rollback overtakes it at t=2. The late checkpoint must not start a
    # persist on a resolved component, nor send a ready ack after it.
    policy = AdversarialSchedule(message_delays={("c0", "checkpoint"): 6})
    sim = new_simulation(2, policy, seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=1))
    assert out.decision is Decision.ROLLED_BACK
    c0 = sim.handler("c0")
    assert c0.stage is PersistenceStage.IDLE
    assert not c0.staged_ready and not c0.acked
    assert not any(r.kind == "deliver" and r.payload.get("type") == "ready"
                   for r in out.trace.records)


def test_bilateral_coordinator_crash_blocks():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=30),
                        coordinator_crash_at=2)
    assert out.decision is Decision.NO_DECISION
    assert set(out.blocked) == {"c0", "c1"}
    assert out.vector_class is not AtomicityClass.TOP


def test_bilateral_never_mixed_over_random_crashes():
    for i in range(200):
        seed = derive_seed(31337, i)
        rng = random.Random(seed)
        sim = new_simulation(3, UniformDelay(1, 3), seed=seed)
        crashes = [(f"c{j}", rng.randint(1, 25))
                   for j in range(3) if rng.random() < 0.4]
        out = run_bilateral(sim, BilateralConfig(ack_timeout=30),
                            crashes=crashes)
        assert out.vector_class is not AtomicityClass.MIXED, (seed, crashes)
        assert not out.disagreement


def test_verify_acks_rejects_corrupt_digest(monkeypatch):
    # The coordinator expects another digest from c1 than c1 sends.
    digest = protocols.ack_digest
    monkeypatch.setattr(protocols, "ack_digest", lambda component, epoch:
                        digest(component, epoch) + ("x" if component == "c1" else ""))
    sim = new_simulation(2, FixedDelay(1), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=30))
    assert out.decision is Decision.ROLLED_BACK


def test_decision_log_write_once():
    rec = DecisionLog()
    rec.write("commit", time=5)
    rec.write("commit", time=7)  # the logged value again is a no-op
    assert (rec.decision, rec.time) == ("commit", 5)
    with pytest.raises(ValueError, match="^decision log is write-once$"):
        rec.write("rollback", time=6)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def test_battery_deterministic_across_worker_counts():
    a = compare_protocols(n=3, runs=60, seed=17, workers=1)
    b = compare_protocols(n=3, runs=60, seed=17, workers=4)
    assert a.to_json_obj() == b.to_json_obj()


def test_battery_tallies_partition_runs():
    rep = compare_protocols(n=3, runs=80, seed=9)
    for t in (rep.naive, rep.bilateral):
        assert t.top + t.bottom_all + t.mixed + t.no_decision == 80


def test_battery_covers_every_stage(tmp_path):
    rep = compare_protocols(n=4, runs=600, seed=23)
    want = {s.name for s in PersistenceStage} | {"post_ack"}
    assert want <= set(rep.crash_stage_coverage)
    assert rep.bilateral.mixed == 0
    assert rep.naive.mixed > 0
    assert rep.naive.disagreements > 0


def test_battery_rejects_empty_cluster():
    # battery_case names the cluster before it draws a crash schedule, so an
    # empty one is refused even where no simulation would be built.
    for build in (lambda: compare_protocols(0, 1, 0), lambda: battery_case(0, 0)):
        with pytest.raises(ConfigError, match="^cluster size must be at least one component$"):
            build()


@pytest.mark.parametrize("crash_prob", [1.5, -0.1, math.nan])
def test_battery_refuses_a_crash_probability_outside_the_unit_interval(crash_prob):
    # Each would otherwise give the case of a valid probability: 1.5 that
    # of 1.0, and -0.1 and nan a crash-free one.
    with pytest.raises(ValueError, match=r"^crash probability must lie in \[0, 1\]$"):
        battery_case(4, 1, crash_prob)
    with pytest.raises(ValueError, match=r"^crash probability must lie in \[0, 1\]$"):
        compare_protocols(4, 1, 0, crash_prob=crash_prob)


def test_reported_mixed_seed_replays_as_a_battery_case():
    # The README example's sample_mixed_seed, rebuilt with battery_case and
    # run naive, ends Mixed, and no earlier run index's case does.
    report = compare_protocols(4, 300, 0)
    seeds = [derive_seed(0, i) for i in range(300)]
    first = seeds.index(report.sample_mixed_seed)
    config = NaiveCheckpointConfig(boundary_time=10)
    classes = [run_naive(case.simulation(), config, crashes=case.crashes).vector_class
               for case in (battery_case(4, s) for s in seeds[:first + 1])]
    assert classes[-1] is AtomicityClass.MIXED
    assert AtomicityClass.MIXED not in classes[:-1]


def test_battery_crash_probability_has_one_default():
    # The CLI's default, the battery's and a replayed case's must agree, or
    # a reported sample_mixed_seed would replay a different crash schedule.
    defaults = [
        inspect.signature(battery_case).parameters["crash_prob"].default,
        inspect.signature(compare_protocols).parameters["crash_prob"].default,
        build_parser().parse_args(["bilateral-vs-naive"]).crash_prob,
    ]
    assert defaults == [protocols.BATTERY_CRASH_PROB] * 3


def _simulated_reports(n: int, runs: int, seed: int, crash_prob: float,
                       ack_timeouts) -> dict[int, ComparisonReport]:
    """The battery's report at each ack timeout, with every one of its run
    indices simulated in full under both protocols."""
    naive = ClassTallies()
    sample = None
    bilateral = {t: ClassTallies() for t in ack_timeouts}
    coverage: dict[int, dict[str, int]] = {t: {} for t in ack_timeouts}
    for i in range(runs):
        case = battery_case(n, derive_seed(seed, i), crash_prob)
        out = run_naive(case.simulation(), NaiveCheckpointConfig(boundary_time=10),
                        crashes=case.crashes)
        naive.add(out)
        if sample is None and out.vector_class is AtomicityClass.MIXED:
            sample = case.seed
        for t in ack_timeouts:
            sim = case.simulation()
            bilateral[t].add(run_bilateral(sim, BilateralConfig(ack_timeout=t),
                                           crashes=case.crashes))
            for name, _ in case.crashes:
                for rec in sim.components[name].crash_log:
                    stages = [rec.stage, "post_ack"] if rec.acked else [rec.stage]
                    for stage in stages:
                        coverage[t][stage] = coverage[t].get(stage, 0) + 1
    return {t: ComparisonReport(runs=runs, n=n, seed=seed, naive=naive,
                                bilateral=bilateral[t], crash_stage_coverage=coverage[t],
                                sample_mixed_seed=sample)
            for t in ack_timeouts}


@pytest.mark.parametrize("n", range(1, 17))
def test_settled_crash_free_runs_equal_full_simulation(n):
    # The battery settles crash-free runs and runs whose crashes all land
    # after LATEST_DONE, above the timeout bound of 21; every report must
    # equal one that simulates every run index, on both sides of the bound.
    runs, seed = 12, 4242
    late = 0
    for crash_prob, timeouts in ((0.0, range(1, 41)), (0.15, (1, 19, 21, 22, 23, 40)),
                                 (0.5, (1, 21, 22, 30)), (1.0, (21, 22, 40))):
        want = _simulated_reports(n, runs, seed, crash_prob, timeouts)
        for t in timeouts:
            report = compare_protocols(n, runs, seed, crash_prob=crash_prob, ack_timeout=t)
            assert report == want[t], (crash_prob, t)
        cases = [battery_case(n, derive_seed(seed, i), crash_prob) for i in range(runs)]
        late += sum(bool(c.crashes) and min(t for _, t in c.crashes) > LATEST_DONE
                    for c in cases)
    assert late > 0  # some run with crashes is settled


def test_late_crash_bound_is_sharp():
    # Every delay at BATTERY_DELAY.hi: c0's persist ends at tick 18 exactly.
    assert LATEST_DONE == 18
    config = BilateralConfig(ack_timeout=30)
    sim = new_simulation(2, FixedDelay(BATTERY_DELAY.hi), 0)
    out = run_bilateral(sim, config, crashes=[("c0", 18)])
    assert out.decision is Decision.ROLLED_BACK
    assert sim.components["c0"].crash_log == [CrashRecord("METADATA_UPDATE", False)]
    assert not settles_top([("c0", 18)], 30)

    assert settles_top([("c0", 19)], 30)
    sim = new_simulation(2, FixedDelay(BATTERY_DELAY.hi), 0)
    out = run_bilateral(sim, config, crashes=[("c0", 19)])
    assert out.decision is Decision.COMMITTED
    assert out.vector_class is AtomicityClass.TOP
    assert sim.components["c0"].crash_log == [CrashRecord("DONE", True)]
    out = run_naive(new_simulation(2, FixedDelay(BATTERY_DELAY.hi), 0),
                    NaiveCheckpointConfig(boundary_time=10), crashes=[("c0", 19)])
    assert out.decision is Decision.COMMITTED
    assert out.vector_class is AtomicityClass.TOP


def test_default_battery_simulation_count(monkeypatch):
    # Pins the settle's saving at criterion 4's config: of 10,000 runs,
    # 3,291 are simulated, each under both protocols. Simulating every run
    # with a crash would build 9,448.
    built = 0
    simulation = BatteryCase.simulation

    def counted(case):
        nonlocal built
        built += 1
        return simulation(case)

    monkeypatch.setattr(BatteryCase, "simulation", counted)
    compare_protocols(4, 10_000, 0)
    assert built == 6_582


def test_crash_free_bound_is_sharp():
    # Pinned from the full simulation: of the crash-free run indices of a
    # battery, some roll back at the bound and none above it, and the
    # settling rule switches on exactly there.
    n, seed = 8, 90210
    free = [case for case in (battery_case(n, derive_seed(seed, i)) for i in range(2000))
            if not case.crashes]
    assert len(free) == 570
    rolled_back = {
        t: sum(run_bilateral(case.simulation(), BilateralConfig(ack_timeout=t)).decision
               is Decision.ROLLED_BACK for case in free)
        for t in (21, 22)}
    assert rolled_back == {21: 5, 22: 0}
    assert not settles_top((), 21)
    assert settles_top((), 22)


# ---------------------------------------------------------------------------
# retry loops
# ---------------------------------------------------------------------------


def test_failure_prob_schedule():
    model = RetryModel(base_failure_prob=0.1, amplification=1.5,
                       max_attempts=40)
    want = [0.1, 0.15, 0.225, 0.3375, 0.50625, 0.759375]
    for k, p in enumerate(want, start=1):
        assert model.failure_prob(k) == pytest.approx(p, abs=1e-12)
    assert model.failure_prob(7) == 1.0  # capped
    assert model.failure_prob(20) == 1.0


def test_retry_flat_alpha_matches_geometric():
    model = RetryModel(base_failure_prob=1 - (1 - 0.1) ** 10,
                       amplification=1.0, max_attempts=200)
    rng = random.Random(4)
    runs = 20_000
    total = 0
    for _ in range(runs):
        stats = run_retry_loop(model, 1, rng)
        assert stats.succeeded
        total += stats.attempts
    mean = total / runs
    closed = geometric_mean_attempts(0.1, 10)
    assert mean == pytest.approx(closed, rel=0.05)
    assert geometric_baseline(0.1, 10) == pytest.approx(closed, abs=1e-12)


def test_retry_amplification_exceeds_baseline():
    # collective of 10 components, per-component failure 0.1 per attempt
    base = 1 - (1 - 0.1) ** 10
    rng = random.Random(8)
    model = RetryModel(base_failure_prob=base, amplification=1.5,
                       max_attempts=40)
    runs = 4_000
    total = succ = 0
    for _ in range(runs):
        stats = run_retry_loop(model, 1, rng)
        total += stats.attempts
        succ += stats.succeeded
    mean = total / runs
    oracle = expected_attempts_truncated(base, 1.5, 40)
    assert mean == pytest.approx(oracle, rel=0.05)
    assert mean > 2 * geometric_mean_attempts(0.1, 10)
    assert succ / runs == pytest.approx(success_prob_truncated(base, 1.5, 40),
                                        abs=0.03)


def test_retry_divergent_schedule_exhausts_budget():
    model = RetryModel(base_failure_prob=1.0, amplification=2.0,
                       max_attempts=7)
    stats = run_retry_loop(model, 1, random.Random(0))
    assert not stats.succeeded
    assert stats.attempts == 7
    # load sums alpha^(k-1): 1+2+4+...+64
    assert stats.total_load == pytest.approx(127.0)


@pytest.mark.parametrize("p0,alpha,max_attempts,n", [
    (0.1, 1.0, 40, 10),    # alpha = 1: a flat schedule
    (0.1, 1.25, 40, 10),   # the CLI default's middle sweep
    (0.05, 1.1, 40, 5),    # alpha not a short binary fraction: loads round
    (0.3, 4.0, 6, 10),     # the cap is reached at attempt 2
    (1.0, 2.0, 7, 1),      # every run exhausts the budget
    (0.0, 3.0, 5, 4),      # never fails
    (0.5, 1.5, 1, 3),      # a budget of one attempt
])
def test_retry_loop_matches_the_per_attempt_oracle(p0, alpha, max_attempts, n):
    model = RetryModel(base_failure_prob=p0, amplification=alpha,
                       max_attempts=max_attempts)
    ours, reference = random.Random(7), random.Random(7)
    for _ in range(300):
        stats = run_retry_loop(model, n, ours)
        want = retry_loop(p0, alpha, max_attempts, n, reference)
        assert (stats.attempts, stats.succeeded, stats.total_load) == want
        assert ours.getstate() == reference.getstate()


def test_retry_schedule_matches_failure_prob_and_load():
    model = RetryModel(base_failure_prob=0.3, amplification=4.0, max_attempts=6)
    load = 0.0
    for k, (k_s, p, load_s) in enumerate(model.schedule, start=1):
        load += 4.0 ** (k - 1)
        assert (k_s, p, load_s) == (k, model.failure_prob(k), load)
    assert len(model.schedule) == 6


def test_retry_load_grows_with_alpha():
    summaries = retry_sweep(0.1, 10, [1.0, 1.25, 1.5], runs=1500, seed=2)
    loads = [s.mean_load for s in summaries]
    assert loads[0] < loads[1] < loads[2]
    attempts = [s.mean_attempts for s in summaries]
    assert attempts[0] < attempts[1] < attempts[2]


def test_retry_sweep_reproducible():
    a = retry_sweep(0.1, 5, [1.0, 1.5], runs=500, seed=3)
    b = retry_sweep(0.1, 5, [1.0, 1.5], runs=500, seed=3)
    assert a == b


def test_retry_sweep_alphas_never_share_a_stream(monkeypatch):
    # alphas that agree to three decimals still get distinct streams
    firsts = []

    def recording_loop(model, n, rng):
        firsts.append(rng.random())
        return RetryStats(attempts=1, succeeded=True, total_load=1.0)

    monkeypatch.setattr(protocols, "run_retry_loop", recording_loop)
    retry_sweep(0.1, 1, [1.0001, 1.0002], runs=50, seed=0)
    assert len(firsts) == 100
    assert len(set(firsts)) == 100


def test_model_validation():
    with pytest.raises(ValueError):
        RetryModel(base_failure_prob=1.2)
    with pytest.raises(ValueError):
        RetryModel(base_failure_prob=0.5, amplification=0.9)
    with pytest.raises(ValueError):
        RetryModel(base_failure_prob=0.5, max_attempts=0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 1e308, 1e10])
def test_model_rejects_nonfinite_or_overflowing_amplification(alpha):
    # 1e10 ** 39 overflows a float; so would the load of a 40-attempt run.
    with pytest.raises(ValueError):
        RetryModel(base_failure_prob=0.1, amplification=alpha, max_attempts=40)


def test_model_accepts_the_largest_finite_load():
    model = RetryModel(base_failure_prob=1.0, amplification=8e307, max_attempts=2)
    stats = run_retry_loop(model, 1, random.Random(0))
    assert stats.total_load == 8e307 + 1


@pytest.mark.parametrize("kwargs", [
    {"n": 0, "alphas": [1.0]},
    {"n": 3, "alphas": []},
    {"n": 1, "alphas": [8e307], "p0": 1.0, "max_attempts": 2},  # sum over runs overflows
])
def test_retry_sweep_rejects_degenerate_sweeps(kwargs):
    kwargs = {"p0": 0.1, "runs": 3, "seed": 0, **kwargs}
    with pytest.raises(ValueError):
        retry_sweep(**kwargs)


@pytest.mark.parametrize("alpha", [0.5, 1e10])
def test_retry_sweep_refuses_a_late_invalid_alpha_before_any_run(monkeypatch, alpha):
    def no_run(model, n, rng):
        raise AssertionError("ran a retry loop")

    monkeypatch.setattr(protocols, "run_retry_loop", no_run)
    with pytest.raises(ValueError, match="amplification"):
        retry_sweep(0.1, 3, [1.0, 1.0, 1.0, alpha], runs=100_000, seed=0)


def test_derive_seed_spreads():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(1, 0) != derive_seed(0, 0)
    assert all(0 <= s < 2 ** 64 for s in seeds)


# ---------------------------------------------------------------------------
# snap vs conv: instant reading against the completed-run property
# ---------------------------------------------------------------------------


def test_naive_all_crashed_before_start_still_declares_commit():
    # worst case of the boundary declaration: nothing even began, every
    # component sits at the prior epoch, and the decision still says committed
    sim = new_simulation(3, FixedDelay(2), seed=0)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=10),
                    crashes=[(f"c{i}", 1) for i in range(3)])
    assert out.vector_class is AtomicityClass.BOTTOM_ALL
    assert all(s is EpochSymbol.E_MINUS_1 for s in out.final_vector.entries)
    assert out.decision is Decision.COMMITTED
    assert out.disagreement
    assert not conv_holds(out, 1)


def test_snap_and_conv_agree_on_clean_run():
    sim = new_simulation(3, FixedDelay(1), seed=0)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=20))
    assert snap_holds(out.boundary_vector)
    assert conv_holds(out, 1)


def test_conv_holds_where_early_snap_misses_inflight_writes():
    # probe before the writes land: the instant reading is not Top while
    # the completed run still converges to all-committed
    sim = new_simulation(3, FixedDelay(2), seed=0)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=5))
    assert not snap_holds(out.boundary_vector)
    assert conv_holds(out, 1)


def test_conv_false_on_mixed_witness():
    sim = new_simulation(2, FixedDelay(2), seed=0)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=10),
                    crashes=[("c1", 9)])
    assert out.decision is Decision.COMMITTED
    assert not conv_holds(out, 1)
    assert not snap_holds(out.boundary_vector)


def test_conv_checks_epoch_and_rejects_empty_history():
    sim = new_simulation(2, FixedDelay(1), seed=3)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=30))
    assert conv_holds(out, 1)
    assert not conv_holds(out, 2)
    assert not snap_holds(None)
    # a run with no participants has no outcome, so Conv never holds vacuously
    for run, config in ((run_naive, NaiveCheckpointConfig()), (run_bilateral, BilateralConfig())):
        with pytest.raises(ValueError, match="^simulation has no persistence components$"):
            run(Simulation(FixedDelay(1), 0), config)


@pytest.mark.parametrize("run,config", [(run_naive, NaiveCheckpointConfig()),
                                        (run_bilateral, BilateralConfig())],
                         ids=["naive", "bilateral"])
def test_participants_moving_to_different_epochs_are_refused(run, config):
    # The components own the target epoch; a run whose participants disagree
    # on it is refused before anything is queued or registered.
    sim = Simulation(FixedDelay(1), 0, components=[PersistenceProcess("c0", 1),
                                                   PersistenceProcess("c1", 2)])
    with pytest.raises(ValueError, match=r"^participants move to different epochs \[1, 2\]$"):
        run(sim, config, crashes=[("c1", 1)])
    assert sim.component_names() == ["c0", "c1"]
    assert sim.run_until_quiescent().records == ()


def test_bilateral_commit_satisfies_conv():
    sim = new_simulation(2, FixedDelay(1), seed=0)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=30))
    assert out.decision is Decision.COMMITTED
    assert conv_holds(out, 1)


def test_search_for_mixed_bilateral_run_exhausts_budget():
    # no schedule in the budget produces a mixed decided run
    def run_candidate(i: int) -> object:
        seed = derive_seed(77, i)
        rng = random.Random(seed)
        sim = new_simulation(3, UniformDelay(1, 3), seed=seed)
        crashes = [(f"c{j}", rng.randint(1, 25))
                   for j in range(3) if rng.random() < 0.5]
        return run_bilateral(sim, BilateralConfig(ack_timeout=30),
                             crashes=crashes)

    res = search_schedules(
        run_candidate,
        lambda out: out.vector_class is AtomicityClass.MIXED,
        200, itertools.count())
    assert not res.found
    assert res.tried == 200
    assert res.witness is None


def test_retry_zero_failure_always_one_attempt():
    for row in retry_sweep(0.0, 10, [1.0, 3.0], runs=200, seed=5):
        assert row.mean_attempts == 1.0
        assert row.success_rate == 1.0
        assert row.mean_load == 1.0
