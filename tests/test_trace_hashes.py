"""Trace hashes pinned as literals.

Golden stdout shows tallies and witnesses, not event order; these pins make
"the kernel fires the same events, draws the same random numbers and
writes the same trace bytes" a test. Each run is chosen to reach a part of
the trace format: dropped events behind a halted coordinator, an
"already crashed" note, and a 16-node deploy case run both ways. A change
that alters the event alphabet or the draw order on purpose updates these
literals and says why in CHANGES.md.
"""

from __future__ import annotations

import itertools

from epochsim.deploy import deploy_candidates, run_case_consensus, run_case_naive
from epochsim.kernel import UniformDelay, new_simulation
from epochsim.protocols import (
    BilateralConfig,
    Decision,
    NaiveCheckpointConfig,
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


def test_deploy_case_naive_and_consensus():
    case = next(itertools.islice(deploy_candidates(16, 3), 3, None))
    assert len(case.crashes) == 2
    naive = run_case_naive(case).trace
    assert sum(r.dropped for r in naive.records) == 1
    assert naive.hash64() == "7200795531270b28"
    assert run_case_consensus(case).trace.hash64() == "202ed1f42dedb515"
