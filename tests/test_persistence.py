"""Persistence pipeline: stage timeline, crash outcomes, staged commits."""

from __future__ import annotations

import pytest

from epochsim.kernel import FixedDelay, new_simulation
from epochsim.lattice import EpochSymbol
from epochsim.persistence import (
    DURABILITY,
    PersistenceStage,
    ProtocolViolation,
    ack_digest,
)

E_MINUS_1, BOTTOM, E = EpochSymbol.E_MINUS_1, EpochSymbol.BOTTOM, EpochSymbol.E


def _start(n=1, ticks=2, seed=0, epoch=1):
    sim = new_simulation(n, FixedDelay(ticks), seed=seed, epoch=epoch)
    for name in sim.component_names():
        sim.send("driver", name, {"type": "checkpoint", "epoch": epoch})
    return sim


# ---------------------------------------------------------------------------
# crash table
# ---------------------------------------------------------------------------


def test_default_map_outcomes():
    want = {
        PersistenceStage.IDLE: E_MINUS_1,
        PersistenceStage.BUFFER_FLUSH: E_MINUS_1,
        PersistenceStage.DMA_TRANSFER: E_MINUS_1,
        PersistenceStage.WRITE_SYSCALL: BOTTOM,
        PersistenceStage.FSYNC: BOTTOM,
        PersistenceStage.METADATA_UPDATE: E,
        PersistenceStage.DONE: E,
    }
    assert dict(DURABILITY) == want
    with pytest.raises(TypeError):
        DURABILITY[PersistenceStage.FSYNC] = E  # read-only


def test_map_must_cover_every_stage():
    assert set(DURABILITY) == set(PersistenceStage)


def test_map_must_be_monotone():
    # Durability only accumulates: the symbol's rank never falls along the
    # stage order.
    ranks = [DURABILITY[s].rank for s in PersistenceStage]
    assert ranks == sorted(ranks)


def test_map_endpoints_fixed():
    # A crash while idle leaves the prior epoch; a completed persist is durable.
    assert DURABILITY[PersistenceStage.IDLE] is E_MINUS_1
    assert DURABILITY[PersistenceStage.DONE] is E


def test_crash_outcome_epochs():
    # The state a crash leaves is the table's symbol, held relative to the
    # component's own epoch.
    for crash_time, symbol in [(3, E_MINUS_1), (9, BOTTOM), (13, E)]:
        sim = _start(ticks=2, epoch=5)
        sim.inject_crash("c0", crash_time)
        trace = sim.run_until_quiescent()
        assert trace.final_states["c0"] == (5, symbol)
        assert sim.handler("c0").state is symbol


# ---------------------------------------------------------------------------
# normal pipeline walk
# ---------------------------------------------------------------------------


def test_uninterrupted_persist_commits():
    sim = _start(ticks=2)
    trace = sim.run_until_quiescent()
    state = trace.final_states["c0"]
    assert state == (1, E)
    # deliver at 2, five stages of 2 ticks each: the attempt completes at 12
    assert trace.records[-1].time == 12


def test_begin_while_busy_rejected():
    sim = _start(ticks=5)
    proc = sim.handler("c0")
    with pytest.raises(ProtocolViolation):
        # first checkpoint arrives at t=5; replay it by hand afterwards
        sim.run_until_quiescent()
        proc.begin_persist(sim, 1)
    # pipeline is at DONE, not IDLE
    assert proc.stage is PersistenceStage.DONE


def test_epoch_mismatch_rejected():
    sim = new_simulation(1, FixedDelay(1), seed=0, epoch=3)
    sim.send("driver", "c0", {"type": "checkpoint", "epoch": 9})
    with pytest.raises(ProtocolViolation):
        sim.run_until_quiescent()


# ---------------------------------------------------------------------------
# crash outcomes along the pipeline (Fixed(2): deliver 2, stages end 4..12)
# ---------------------------------------------------------------------------


def test_crash_before_delivery_stays_prior():
    sim = _start(ticks=2)
    sim.inject_crash("c0", 1)  # IDLE; the checkpoint at t=2 lands mid-crash
    trace = sim.run_until_quiescent()
    assert trace.final_states["c0"] == (1, E_MINUS_1)
    assert any(r.dropped for r in trace.records)


def test_crash_mid_buffer_flush_keeps_prior_epoch():
    sim = _start(ticks=2)
    sim.inject_crash("c0", 3)
    trace = sim.run_until_quiescent()
    assert trace.final_states["c0"] == (1, E_MINUS_1)
    proc = sim.handler("c0")
    assert proc.crash_log[0].stage == "BUFFER_FLUSH"


def test_crash_mid_fsync_is_ambiguous():
    sim = _start(ticks=2)
    sim.inject_crash("c0", 9)  # FSYNC spans (8, 10]
    trace = sim.run_until_quiescent()
    assert trace.final_states["c0"] == (1, BOTTOM)


def test_crash_mid_metadata_update_is_committed():
    sim = _start(ticks=2)
    sim.inject_crash("c0", 11)
    trace = sim.run_until_quiescent()
    assert trace.final_states["c0"] == (1, E)


def test_crash_after_done_is_committed():
    sim = _start(ticks=2)
    sim.inject_crash("c0", 13)
    trace = sim.run_until_quiescent()
    assert trace.final_states["c0"] == (1, E)
    proc = sim.handler("c0")
    assert proc.crash_log[0].stage == "DONE"


# Fixed(2): the checkpoint lands at t=2 and stage k ends at t=2+2k. A crash
# on the delivery tick, or exactly at a stage's end tick, sees that stage.
_STAGE_AT_TICK = [
    (1, "IDLE", EpochSymbol.E_MINUS_1),  # the checkpoint lands mid-crash
    (2, "BUFFER_FLUSH", EpochSymbol.E_MINUS_1),
    (3, "BUFFER_FLUSH", EpochSymbol.E_MINUS_1),
    (4, "BUFFER_FLUSH", EpochSymbol.E_MINUS_1),
    (5, "DMA_TRANSFER", EpochSymbol.E_MINUS_1),
    (6, "DMA_TRANSFER", EpochSymbol.E_MINUS_1),
    (7, "WRITE_SYSCALL", EpochSymbol.BOTTOM),
    (8, "WRITE_SYSCALL", EpochSymbol.BOTTOM),
    (9, "FSYNC", EpochSymbol.BOTTOM),
    (10, "FSYNC", EpochSymbol.BOTTOM),
    (11, "METADATA_UPDATE", EpochSymbol.E),
    (12, "METADATA_UPDATE", EpochSymbol.E),
    (13, "DONE", EpochSymbol.E),
]


@pytest.mark.parametrize("crash_time,stage,symbol,tentative", [
    pytest.param(t, stage, symbol, tentative,
                 id=f"{t}-EpochSymbol.{symbol.name}" + ("-tentative" if tentative else ""))
    for t, stage, symbol in _STAGE_AT_TICK for tentative in (False, True)
])
def test_crash_symbol_by_stage(crash_time, stage, symbol, tentative):
    sim = _staged(ticks=2)[0] if tentative else _start(ticks=2)
    sim.inject_crash("c0", crash_time)
    trace = sim.run_until_quiescent()
    assert sim.handler("c0").crash_log[0].stage == stage
    # a tentative attempt never touches the stable copy
    want = EpochSymbol.E_MINUS_1 if tentative else symbol
    assert trace.final_states["c0"] == (1, want)


# ---------------------------------------------------------------------------
# staged (two-step) persists
# ---------------------------------------------------------------------------


def _staged(ticks=1):
    sim = new_simulation(1, FixedDelay(ticks), seed=0)
    sim.send("driver", "c0", {"type": "checkpoint", "epoch": 1,
                              "tentative": True})
    return sim, sim.handler("c0")


def test_staged_persist_leaves_stable_copy_until_commit():
    sim, proc = _staged()
    sim.run_until_quiescent()
    assert proc.staged_ready
    assert proc.epoch_state() == (1, E_MINUS_1)
    proc.apply_directive(sim, "commit", 1)
    assert proc.epoch_state() == (1, E)


def test_staged_rollback_discards():
    sim, proc = _staged()
    sim.run_until_quiescent()
    proc.apply_directive(sim, "rollback", 1)
    assert proc.epoch_state() == (1, E_MINUS_1)
    assert not proc.staged_ready
    assert proc.stage is PersistenceStage.IDLE


def test_directives_idempotent():
    sim, proc = _staged()
    sim.run_until_quiescent()
    proc.apply_directive(sim, "commit", 1)
    proc.apply_directive(sim, "commit", 1)
    proc.apply_directive(sim, "rollback", 1)  # resolved: ignored
    assert proc.epoch_state() == (1, E)


def test_commit_without_staged_data_rejected():
    sim = new_simulation(1, FixedDelay(1), seed=0)
    proc = sim.handler("c0")
    with pytest.raises(ProtocolViolation):
        proc.apply_directive(sim, "commit", 1)


def test_directive_epoch_mismatch_rejected():
    sim, proc = _staged()
    sim.run_until_quiescent()
    with pytest.raises(ProtocolViolation):
        proc.apply_directive(sim, "rollback", 2)


def test_staged_crash_early_discards_staging():
    sim, proc = _staged(ticks=2)
    sim.inject_crash("c0", 5)  # DMA_TRANSFER
    sim.run_until_quiescent()
    assert not proc.staged_ready
    assert proc.stage is PersistenceStage.IDLE
    assert proc.epoch_state() == (1, E_MINUS_1)


def test_staged_crash_late_keeps_staging_durable():
    # past the commit point of the map the staged bytes survive the crash,
    # but the stable copy is untouched until a directive lands
    sim, proc = _staged(ticks=2)
    sim.inject_crash("c0", 11)  # METADATA_UPDATE
    sim.run_until_quiescent()
    assert proc.staged_ready
    assert proc.epoch_state() == (1, E_MINUS_1)
    proc.apply_directive(sim, "commit", 1)
    assert proc.epoch_state() == (1, E)


def test_ack_digest_stable():
    assert ack_digest("c0", 1) == ack_digest("c0", 1)
    assert ack_digest("c0", 1) != ack_digest("c1", 1)
    assert ack_digest("c0", 1) != ack_digest("c0", 2)


def test_crash_log_records_ack_state():
    sim, proc = _staged(ticks=2)
    proc.ack_to = None
    sim.inject_crash("c0", 13)  # after DONE, after (would-be) ack
    sim.run_until_quiescent()
    rec = proc.crash_log[0]
    assert rec.stage == "DONE"
    assert rec.tentative
