"""Fleet firmware rollout: naive broadcast vs registered decision."""

from __future__ import annotations

import pytest

from epochsim.deploy import (
    CollectiveSpec,
    DecisionRegister,
    FencePolicy,
    FirmwareEpoch,
    FirmwareNode,
    _build_sim,
    _CollectiveRunner,
    _schedule_collectives,
    deploy_candidates,
    directed_straddle_case,
    random_deploy_case,
    run_case_consensus,
    run_case_naive,
    run_consensus_deploy,
    run_naive_deploy,
)
from epochsim.kernel import (AdversarialSchedule, ConfigError, FixedDelay, Simulation,
                             UniformDelay)
from epochsim.protocols import derive_seed


def _spec(cid, time, names):
    return CollectiveSpec(cid=cid, time=time, participants=tuple(names))


# ---------------------------------------------------------------------------
# naive broadcast
# ---------------------------------------------------------------------------


def test_naive_all_nodes_eventually_switch():
    rep = run_naive_deploy(3, deploy_time=5,
                           collectives=[_spec(0, 100, ["n0", "n1", "n2"])],
                           delay=FixedDelay(2), seed=0)
    inst = rep.collectives[0]
    assert inst.correct_versions() == {FirmwareEpoch.F1}
    assert not inst.is_mixed


def test_directed_straddle_always_mixed():
    rep = run_case_naive(directed_straddle_case(2))
    assert len(rep.mixed) == 1
    inst = rep.mixed[0]
    assert inst.correct_versions() == {FirmwareEpoch.F0, FirmwareEpoch.F1}


def test_directed_straddle_scales_with_n():
    rep = run_case_naive(directed_straddle_case(16))
    assert len(rep.mixed) == 1


@pytest.mark.parametrize("n", [2, 3, 16])
def test_directed_straddle_keys_name_registered_nodes(n):
    # AdversarialSchedule falls back to its default delay for a key that
    # names no node, so a drift in the naming scheme would otherwise go unseen.
    case = directed_straddle_case(n)
    sim = _build_sim(n, case.delay, 0)
    registered = set(sim.component_names())
    assert {name for name, _ in case.delay.message_delays} <= registered
    assert set(case.collectives[0].participants) <= registered


def test_naive_node_crashed_through_delivery_stays_stale():
    # n1's switch is lost while it is down; it participates later at F0
    delay = AdversarialSchedule(message_delays={("n0", "firmware"): 1,
                                                ("n1", "firmware"): 5},
                                default_message_delay=1,
                                default_recovery_delay=10)
    rep = run_naive_deploy(2, deploy_time=10,
                           collectives=[_spec(0, 40, ["n0", "n1"])],
                           delay=delay, seed=0, crashes=[("n1", 14)])
    inst = rep.collectives[0]
    assert inst.correct_versions() == {FirmwareEpoch.F0, FirmwareEpoch.F1}
    assert inst.is_mixed


def test_crashed_participant_is_fenced_not_wrong():
    delay = AdversarialSchedule(default_message_delay=1,
                                default_recovery_delay=100)
    rep = run_naive_deploy(2, deploy_time=5,
                           collectives=[_spec(0, 20, ["n0", "n1"])],
                           delay=delay, seed=0, crashes=[("n1", 18)])
    inst = rep.collectives[0]
    assert inst.fenced == ("n1",)
    assert inst.correct == {"n0": True, "n1": False}
    assert not inst.is_mixed  # a down node is not a wrong node


def test_naive_no_live_participants_aborts():
    delay = AdversarialSchedule(default_message_delay=1,
                                default_recovery_delay=100)
    rep = run_naive_deploy(1, deploy_time=5,
                           collectives=[_spec(0, 20, ["n0"])],
                           delay=delay, seed=0, crashes=[("n0", 10)])
    assert rep.collectives[0].aborted


# ---------------------------------------------------------------------------
# registered decision
# ---------------------------------------------------------------------------


def test_consensus_directed_case_is_clean():
    rep = run_case_consensus(directed_straddle_case(2))
    assert rep.mixed == []
    inst = rep.collectives[0]
    assert inst.correct_versions() == {FirmwareEpoch.F1}


def test_consensus_before_proposal_everyone_stays_f0():
    rep = run_consensus_deploy(3, collectives=[_spec(0, 8, ["n0", "n1", "n2"])],
                               propose_time=None, delay=FixedDelay(1), seed=0)
    inst = rep.collectives[0]
    assert inst.correct_versions() == {FirmwareEpoch.F0}
    assert not inst.is_mixed


def test_consensus_observation_is_mandatory():
    # collective before the proposal lands: F0; after: F1; never mixed
    rep = run_consensus_deploy(
        2, collectives=[_spec(0, 3, ["n0", "n1"]), _spec(1, 30, ["n0", "n1"])],
        propose_time=10, delay=FixedDelay(1), seed=0)
    first, second = rep.collectives
    assert first.correct_versions() == {FirmwareEpoch.F0}
    assert second.correct_versions() == {FirmwareEpoch.F1}
    assert rep.mixed == []


def test_consensus_register_outage_aborts():
    rep = run_consensus_deploy(
        2, collectives=[_spec(0, 15, ["n0", "n1"])], propose_time=5,
        delay=FixedDelay(1), seed=0, register_outage=(12, 20))
    inst = rep.collectives[0]
    assert inst.aborted
    assert inst.abort_reason == "register unavailable"
    assert rep.mixed == []


def test_consensus_fence_abort_policy():
    delay = AdversarialSchedule(default_message_delay=1,
                                default_recovery_delay=100)
    crash = [("n1", 14)]
    specs = [_spec(0, 20, ["n0", "n1"])]
    proceed = run_consensus_deploy(2, collectives=specs, propose_time=5,
                                   delay=delay, seed=0, crashes=crash,
                                   fence_policy=FencePolicy.PROCEED)
    assert not proceed.collectives[0].aborted
    assert proceed.collectives[0].fenced == ("n1",)
    strict = run_consensus_deploy(2, collectives=specs, propose_time=5,
                                  delay=delay, seed=0, crashes=crash,
                                  fence_policy=FencePolicy.ABORT)
    assert strict.collectives[0].aborted
    assert strict.collectives[0].abort_reason == "fenced participants"


def test_consensus_all_fenced_aborts_even_when_proceeding():
    delay = AdversarialSchedule(default_message_delay=1,
                                default_recovery_delay=100)
    rep = run_consensus_deploy(2, collectives=[_spec(0, 20, ["n0", "n1"])],
                               propose_time=5, delay=delay, seed=0,
                               crashes=[("n0", 10), ("n1", 10)],
                               fence_policy=FencePolicy.PROCEED)
    assert rep.collectives[0].aborted


def test_register_write_once():
    reg = DecisionRegister()
    reg.commit(FirmwareEpoch.F1, 4)
    with pytest.raises(ValueError):
        reg.commit(FirmwareEpoch.F0, 9)
    ok, value = reg.read(now=10)
    assert ok and value is FirmwareEpoch.F1


def test_register_outage_window():
    reg = DecisionRegister(outage=(5, 8))
    reg.commit(FirmwareEpoch.F1, 2)
    assert reg.read(3) == (True, FirmwareEpoch.F1)
    assert reg.read(5)[0] is False
    assert reg.read(8)[0] is False
    assert reg.read(9) == (True, FirmwareEpoch.F1)


# ---------------------------------------------------------------------------
# case streams
# ---------------------------------------------------------------------------


def test_candidate_stream_leads_with_directed_case():
    gen = deploy_candidates(2, seed=0)
    first = next(gen)
    assert first == directed_straddle_case(2)
    second = next(gen)
    assert second != first


def test_random_cases_reproducible():
    a = random_deploy_case(4, derive_seed(7, 1))
    b = random_deploy_case(4, derive_seed(7, 1))
    assert a == b


def test_random_case_shape():
    case = random_deploy_case(4, 123)
    assert case.n == 4
    assert 1 <= case.deploy_time
    assert 1 <= len(case.collectives) <= 3
    for spec in case.collectives:
        assert spec.participants
        assert all(p.startswith("n") for p in spec.participants)


def test_detect_mixed_reports_only_true_mixes():
    rep = run_case_naive(directed_straddle_case(2))
    found = rep.mixed
    assert found and all(c.is_mixed for c in found)
    assert found == [c for c in rep.collectives if len(c.correct_versions()) >= 2]
    clean = run_case_consensus(directed_straddle_case(2))
    assert clean.mixed == []


def test_single_node_fleet_never_mixes():
    # a collective of one cannot see two versions, whatever the delivery lag
    for t in (1, 6, 12, 40):
        rep = run_naive_deploy(1, deploy_time=5,
                               collectives=[_spec(0, t, ["n0"])],
                               delay=UniformDelay(1, 20), seed=3)
        inst = rep.collectives[0]
        assert not inst.is_mixed
        assert len(inst.correct_versions()) == 1


@pytest.mark.parametrize("run", [
    lambda: run_naive_deploy(0, 5, [], delay=FixedDelay(1)),
    lambda: run_consensus_deploy(0, [], propose_time=5, delay=FixedDelay(1)),
], ids=["naive", "consensus"])
def test_deploy_refuses_an_empty_fleet(run):
    with pytest.raises(ConfigError, match="^cluster size must be at least one component$"):
        run()


def test_register_outage_fences_crashed_nodes_then_aborts_at_first_live_one():
    # n0 is down and the register is unavailable when the collective runs:
    # n0 is fenced, n1 cannot observe and aborts the collective, and n2 is
    # never asked, so none of them adopts the committed F1.
    sim = Simulation(FixedDelay(100), seed=0)
    nodes = [FirmwareNode(f"n{i}") for i in range(3)]
    for node in nodes:
        sim.register(node)
    register = DecisionRegister(outage=(15, 25))
    register.commit(FirmwareEpoch.F1, 5)
    runner = _CollectiveRunner(register, FencePolicy.PROCEED)
    _schedule_collectives(sim, runner, [_spec(0, 20, ["n0", "n1", "n2"])])
    sim.inject_crash("n0", 10)
    sim.run_until_quiescent()
    inst, = runner.instances
    assert inst.fenced == ("n0",)
    assert inst.correct == {"n0": False}
    assert inst.versions == {}
    assert inst.aborted and inst.abort_reason == "register unavailable"
    assert [n.version for n in nodes] == [FirmwareEpoch.F0] * 3
