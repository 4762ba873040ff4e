"""Trace hashes pinned as literals.

Golden stdout shows tallies and witnesses, not event order; these pins make
"the kernel fires the same events, draws the same random numbers and
writes the same trace bytes" a test. Each run is chosen to reach a part of
the trace format: dropped events behind a halted coordinator, an
"already crashed" note, a 64-component battery run whose busiest tick
holds over twenty events, and a 16-node deploy case run both ways. The deploy
digest pins whole reports, trace hashes included, over 200 cases. A change
that alters the event alphabet or the draw order on purpose updates these
literals and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter

from epochsim.deploy import (
    FencePolicy,
    deploy_candidates,
    run_case_consensus,
    run_case_naive,
    run_consensus_deploy,
)
from epochsim.kernel import UniformDelay, _component_names, new_simulation
from epochsim.protocols import (
    BATTERY_DELAY,
    CRASH_WINDOW,
    BilateralConfig,
    Decision,
    NaiveCheckpointConfig,
    compare_protocols,
    crash_schedule,
    derive_seed,
    run_bilateral,
    run_naive,
)


def test_bilateral_with_coordinator_crash():
    sim = new_simulation(3, UniformDelay(1, 3), seed=11)
    out = run_bilateral(sim, BilateralConfig(ack_timeout=30), crashes=[("c1", 4)],
                        coordinator_crash_at=8)
    assert out.decision is Decision.NO_DECISION
    assert sum(r.dropped for r in out.trace.records) == 3
    assert out.trace.hash64() == "1d0a2678d45ae968"


def test_naive_with_double_crash():
    sim = new_simulation(3, UniformDelay(2, 4), seed=5)
    out = run_naive(sim, NaiveCheckpointConfig(boundary_time=10),
                    crashes=[("c0", 3), ("c0", 4), ("c2", 7)])
    assert [r.note for r in out.trace.records if r.note] == ["already crashed"]
    assert out.trace.hash64() == "c493d2f17c534c14"


def _battery_run(n: int, seed: int, index: int):
    """Run index of a battery: its crash schedule and both runs, as in compare_protocols."""
    run_seed = derive_seed(seed, index)
    crashes = crash_schedule(_component_names(n), random.Random(run_seed), 0.15, CRASH_WINDOW)
    bilateral = run_bilateral(new_simulation(n, BATTERY_DELAY, run_seed),
                              BilateralConfig(ack_timeout=30), crashes=crashes)
    naive = run_naive(new_simulation(n, BATTERY_DELAY, run_seed),
                      NaiveCheckpointConfig(boundary_time=10), crashes=crashes)
    return crashes, bilateral, naive


def _busiest_tick(trace) -> int:
    return max(Counter(r.time for r in trace.records).values())


def test_battery_runs_at_n64():
    crashes, bilateral, naive = _battery_run(64, 9091, 1)
    assert len(crashes) == 11
    assert bilateral.decision is Decision.ROLLED_BACK
    assert naive.decision is Decision.COMMITTED
    assert len(bilateral.trace.records) == 273 and len(naive.trace.records) == 151
    assert _busiest_tick(bilateral.trace) == _busiest_tick(naive.trace) == 26
    assert bilateral.trace.hash64() == "aeeab2033355fb82"
    assert naive.trace.hash64() == "48d76a69ebdc422c"


def test_battery_report_digest_at_n64():
    obj = compare_protocols(64, 8, 9091).to_json_obj()
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.blake2b(blob.encode(), digest_size=8).hexdigest() == "6df94bb5a212ecaf"


def test_deploy_case_naive_and_consensus():
    case = next(itertools.islice(deploy_candidates(16, 3), 3, None))
    assert len(case.crashes) == 2
    naive = run_case_naive(case).trace
    assert sum(r.dropped for r in naive.records) == 1
    assert naive.hash64() == "7200795531270b28"
    assert run_case_consensus(case).trace.hash64() == "202ed1f42dedb515"


def test_deploy_reports_digest():
    # Per case: naive, consensus under both fence policies and, for the first
    # 50 cases, consensus with the register down for 20 ticks from the
    # proposal, so "register unavailable" aborts are pinned too.
    h = hashlib.blake2b(digest_size=8)
    for i, case in enumerate(itertools.islice(deploy_candidates(16, 3), 200)):
        reports = [run_case_naive(case),
                   run_case_consensus(case, FencePolicy.PROCEED),
                   run_case_consensus(case, FencePolicy.ABORT)]
        if i < 50:
            reports.append(run_consensus_deploy(
                case.n, case.collectives, propose_time=case.deploy_time,
                delay=case.delay, seed=case.seed, crashes=case.crashes,
                register_outage=(case.deploy_time, case.deploy_time + 20)))
        for report in reports:
            h.update(json.dumps(report.to_json_obj(), sort_keys=True,
                                separators=(",", ":")).encode())
    assert h.hexdigest() == "cef0c2dd8a29f85e"

