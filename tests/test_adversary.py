"""Adversarial schedule construction and mixed-state witnesses."""

from __future__ import annotations

import itertools

import pytest

from epochsim.adversary import (
    FULL_STRADDLE_THRESHOLD,
    MIN_BOUNDARY,
    SearchResult,
    WitnessFalsification,
    boundary_grid,
    construct_straddling,
    search_schedules,
    straddle_trial,
    witness_mixed,
)
from epochsim.kernel import new_simulation
from epochsim.lattice import AtomicityClass, EpochSymbol
from epochsim.persistence import ACTIVE_STAGE_NAMES


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def test_construct_large_boundary():
    sch = construct_straddling(4, 3, 100)
    assert sch.begin_target < 100 < sch.complete_target
    assert sch.begin_target == 97
    # non-targets finish at t=6, well before the boundary
    assert sch.early_complete_time == 6
    assert sch.early_completer in {"c0", "c1", "c2"}
    sch.check_invariants()


def test_construct_small_boundary():
    sch = construct_straddling(2, 1, 2)
    assert sch.begin_target < 2 < sch.complete_target
    # too early for any sibling to have completed
    assert sch.early_completer is None
    sch.check_invariants()


@pytest.mark.parametrize("t_c", range(MIN_BOUNDARY, 12))
def test_straddle_stage_layout_follows_the_active_stages(t_c):
    # One duration per active stage, and t_c falls strictly inside the
    # intended stage: the write syscall once the boundary leaves room for
    # the two stages before it, the buffer flush below that.
    sch = construct_straddling(3, 1, t_c)
    assert len(sch.stage_durations) == len(ACTIVE_STAGE_NAMES)
    starts = list(itertools.accumulate(sch.stage_durations[:-1], initial=sch.begin_target))
    ends = [start + d for start, d in zip(starts, sch.stage_durations)]
    straddled = [name for name, start, end in zip(ACTIVE_STAGE_NAMES, starts, ends)
                 if start < t_c < end]
    assert straddled == ["WRITE_SYSCALL" if t_c >= 4 else "BUFFER_FLUSH"]
    assert sch.stage_durations == ((1, 1, 2, 1, 1) if t_c >= 4 else (2, 1, 1, 1, 1))
    assert sch.begin_target == (t_c - 3 if t_c >= 4 else t_c - 1)


def test_construct_rejects_infeasible_boundary():
    with pytest.raises(ValueError):
        construct_straddling(2, 1, 1)
    with pytest.raises(ValueError):
        construct_straddling(2, 1, 0)


def test_construct_rejects_bad_shapes():
    with pytest.raises(ValueError):
        construct_straddling(1, 0, 10)
    with pytest.raises(ValueError):
        construct_straddling(4, 4, 10)
    with pytest.raises(ValueError):
        construct_straddling(4, -1, 10)


def test_construct_scales_to_large_fleet_and_boundary():
    sch = construct_straddling(4000, 2719, 1_000_000)
    assert sch.target_name == "c2719"
    assert sch.begin_target == 999_997
    assert sch.complete_target == 1_000_003
    sch.check_invariants()
    # one retimed component, however large the fleet
    assert len(sch.delay_policy().message_delays) == 1


@pytest.mark.parametrize("n,j,t_c", [(2, 1, 2), (4, 3, 100), (7, 0, 5)])
def test_straddle_keys_name_registered_components(n, j, t_c):
    # AdversarialSchedule falls back to its defaults for a key that names no
    # component, so a drift in the naming scheme would otherwise go unseen.
    # Only the target is retimed; every other component keeps the defaults.
    sch = construct_straddling(n, j, t_c)
    policy = sch.delay_policy()
    registered = set(new_simulation(n, policy, 0).component_names())
    assert sch.target_name in registered
    assert {name for name, _ in policy.message_delays} == {sch.target_name}
    assert {name for name, _ in policy.stage_durations} == {sch.target_name}


@pytest.mark.parametrize("n,j,t_c", [(2, 1, 2), (4, 3, 100), (7, 0, 5)])
def test_straddle_non_targets_complete_at_t6(n, j, t_c):
    sch, out = straddle_trial(n, t_c, j=j, crash=False)
    done = {rec.target: rec.time for rec in out.trace.records
            if rec.payload.get("action") == "persist_done"}
    assert len(done) == n
    assert {done[name] for name in done if name != sch.target_name} == {6}
    assert done[sch.target_name] == sch.complete_target


def test_full_straddle_needs_early_completer():
    # above the threshold some sibling must already be done at t_c
    for t_c in (FULL_STRADDLE_THRESHOLD, 50, 997):
        sch = construct_straddling(3, 2, t_c)
        assert sch.early_completer is not None
        assert sch.early_complete_time < t_c


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_witness_mixed_large_boundary():
    w = witness_mixed(2, 100)
    assert w.outcome.vector_class is AtomicityClass.MIXED
    assert w.vector.entries[0] is EpochSymbol.E
    assert w.vector.entries[1] is EpochSymbol.BOTTOM
    assert "mixed" in w.narrative()


def test_witness_mixed_earliest_boundary():
    w = witness_mixed(2, 2)
    assert w.outcome.vector_class is AtomicityClass.MIXED
    # crash inside buffer flush: stable copy still holds the prior epoch
    assert w.vector.entries[1] is EpochSymbol.E_MINUS_1


def test_witness_chooses_any_target():
    w = witness_mixed(8, 40, j=3)
    assert w.schedule.target_name == "c3"
    assert w.vector.entries[3] is not EpochSymbol.E
    others = [s for i, s in enumerate(w.vector.entries) if i != 3]
    assert all(s is EpochSymbol.E for s in others)


def test_no_crash_control_is_top():
    for t_c in (2, 10, 1000):
        _, out = straddle_trial(2, t_c, crash=False)
        assert out.vector_class is AtomicityClass.TOP, t_c


def test_crash_after_completion_is_top():
    sch, out = straddle_trial(2, 100, crash_time=103 + 1)
    assert out.vector_class is AtomicityClass.TOP


def test_trial_trace_is_reproducible():
    _, a = straddle_trial(4, 50, seed=9)
    _, b = straddle_trial(4, 50, seed=9)
    assert a.trace.hash64() == b.trace.hash64()
    assert a.trace.to_jsonl() == b.trace.to_jsonl()


def test_witness_narrative_names_times():
    w = witness_mixed(2, 64)
    text = w.narrative()
    assert "t_c=64" in text
    assert "c1" in text


def test_witness_json_shape():
    w = witness_mixed(2, 16)
    assert w.outcome.vector_class is AtomicityClass.MIXED
    assert len(w.outcome.trace.hash64()) == 16
    assert w.schedule.boundary == 16
    assert w.crash[1] == 16


# ---------------------------------------------------------------------------
# grids and search
# ---------------------------------------------------------------------------


def test_boundary_grid_properties():
    grid = boundary_grid(100, t_max=1_000_000, seed=3)
    assert len(grid) == 100
    assert len(set(grid)) == 100
    assert grid == sorted(grid)
    assert all(8 <= t <= 1_000_000 for t in grid)


def test_boundary_grid_deterministic():
    assert boundary_grid(50, seed=4) == boundary_grid(50, seed=4)
    assert boundary_grid(50, seed=4) != boundary_grid(50, seed=5)


def test_boundary_grid_stays_below_t_max():
    assert boundary_grid(12, t_max=20, seed=9) == list(range(8, 20))
    for count, t_max in ((1, 8), (3, 1), (100, 0), (13, 20)):
        with pytest.raises(ValueError, match="exceeds"):
            boundary_grid(count, t_max=t_max)


def test_boundary_grid_refuses_a_range_random_sample_cannot_index():
    # [8, 2**63 + 7) holds sys.maxsize boundaries, the most random.sample takes.
    grid = boundary_grid(2, t_max=2**63 + 7, seed=1)
    assert len(grid) == 2 and all(8 <= t < 2**63 + 7 for t in grid)
    for t_max in (2**63 + 8, 10**23):
        with pytest.raises(ValueError, match=rf"^t_max must be at most {2**63 + 7}, got {t_max}$"):
            boundary_grid(2, t_max=t_max)


def test_grid_witnesses_all_mixed():
    for t_c in boundary_grid(10, t_max=10_000, seed=1):
        w = witness_mixed(2, t_c)
        assert w.outcome.vector_class is AtomicityClass.MIXED


def test_search_finds_first_hit():
    calls = []

    def run(c):
        calls.append(c)
        return c

    res = search_schedules(run, lambda x: x >= 3, budget=10,
                           candidates=iter(range(100)))
    assert res == SearchResult(found=True, tried=4, candidate=3, witness=3)
    assert calls == [0, 1, 2, 3]


def test_search_exhausts_budget():
    res = search_schedules(lambda c: c, lambda x: False, budget=5,
                           candidates=iter(range(100)))
    assert not res.found
    assert res.tried == 5
    assert res.witness is None


def test_witness_falsification_raised_when_impossible():
    # crash scheduled after the target completed: assertion must trip
    with pytest.raises(WitnessFalsification):
        w = witness_mixed(2, 100)
        # re-run by hand with a crash too late to matter
        sch, out = straddle_trial(2, 100, crash_time=200)
        if out.vector_class is not AtomicityClass.MIXED:
            raise WitnessFalsification("late crash cannot straddle")
