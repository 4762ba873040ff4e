"""Protocol invariants over generated crash schedules, delays and timeouts.

Fixed-seed batteries only sample the schedules a seed happens to draw;
these properties let Hypothesis search for a counterexample instead. The
bilateral protocol must never end Mixed, a decided run must converge to
the decision, and a component that has applied its directive does no
further work: it sends nothing and its durable state stays put. The
consensus deploy never runs a collective whose
correct participants hold two firmware versions, whatever the crashes,
register outage and fence policy.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from epochsim.deploy import CollectiveSpec, FencePolicy, run_consensus_deploy
from epochsim.kernel import DelayPolicy, Simulation, UniformDelay
from epochsim.lattice import AtomicityClass, EpochSymbol
from epochsim.persistence import PersistenceProcess
from epochsim.protocols import BilateralConfig, Decision, conv_holds, run_bilateral

EPOCH = 1


class WatchedProcess(PersistenceProcess):
    """Records any change to durable state made after the directive landed."""

    def __init__(self, name: str, violations: list[str]) -> None:
        super().__init__(name, epoch=EPOCH)
        self.violations = violations

    def _watch(self, hook, sim, event) -> None:
        before = (self.state, self.staged_ready) if self.resolved else None
        hook(sim, event)
        if before is not None and (self.state, self.staged_ready) != before:
            self.violations.append(f"{self.name} changed state at t={sim.now}")

    def on_event(self, sim, event):
        self._watch(super().on_event, sim, event)

    def on_crash(self, sim, event):
        self._watch(super().on_crash, sim, event)

    def on_recover(self, sim, event):
        self._watch(super().on_recover, sim, event)


class WatchedSimulation(Simulation):
    """Records any message a resolved component sends."""

    def __init__(self, delay_policy: DelayPolicy, seed: int, violations: list[str]) -> None:
        super().__init__(delay_policy, seed)
        self.violations = violations

    def broadcast(self, src, dsts, msg, **kw):
        # send is a one-destination broadcast, so this sees every message.
        sender = self.components.get(src)
        if isinstance(sender, PersistenceProcess) and sender.resolved:
            self.violations.append(f"{src} sent {msg.get('type')} at t={self.now}")
        return super().broadcast(src, dsts, msg, **kw)


@st.composite
def bilateral_runs(draw):
    n = draw(st.integers(1, 4))
    lo = draw(st.integers(1, 3))
    hi = draw(st.integers(lo, 8))
    crashes = draw(st.lists(
        st.tuples(st.integers(0, n - 1).map(lambda i: f"c{i}"), st.integers(1, 30)),
        max_size=4))
    coordinator_crash_at = draw(st.none() | st.integers(1, 30))
    return dict(n=n, delay=UniformDelay(lo, hi), seed=draw(st.integers(0, 2**32)),
                ack_timeout=draw(st.integers(1, 20)), crashes=crashes,
                coordinator_crash_at=coordinator_crash_at)


def _run(case):
    violations: list[str] = []
    sim = WatchedSimulation(case["delay"], case["seed"], violations)
    for i in range(case["n"]):
        sim.register(WatchedProcess(f"c{i}", violations))
    out = run_bilateral(sim, BilateralConfig(ack_timeout=case["ack_timeout"]),
                        crashes=case["crashes"],
                        coordinator_crash_at=case["coordinator_crash_at"])
    return out, violations


@settings(max_examples=100, deadline=None)
@given(bilateral_runs())
def test_bilateral_is_never_mixed(case):
    out, _ = _run(case)
    assert out.vector_class is not AtomicityClass.MIXED


@settings(max_examples=100, deadline=None)
@given(bilateral_runs())
def test_decided_run_converges_to_its_decision(case):
    out, _ = _run(case)
    if out.decision is Decision.COMMITTED:
        assert conv_holds(out, EPOCH)
    elif out.decision is Decision.ROLLED_BACK:
        assert out.epoch == EPOCH
        assert all(s is EpochSymbol.E_MINUS_1 for s in out.final_vector.entries)


@settings(max_examples=100, deadline=None)
@given(bilateral_runs())
def test_resolved_component_does_no_further_work(case):
    _, violations = _run(case)
    assert violations == []


def test_watch_sees_sends_and_broadcasts():
    # The property above is only as good as its watch: a resolved
    # component's message is caught whichever call queues it.
    violations: list[str] = []
    sim = WatchedSimulation(UniformDelay(1, 3), 0, violations)
    proc = WatchedProcess("c0", violations)
    sim.register(proc)
    proc.resolved = True
    sim.send("c0", "c0", {"type": "ack"})
    sim.broadcast("c0", ["c0"], {"type": "ready"})
    assert violations == ["c0 sent ack at t=0", "c0 sent ready at t=0"]


@st.composite
def deploy_runs(draw):
    n = draw(st.integers(2, 6))
    nodes = [f"n{i}" for i in range(n)]
    lo = draw(st.integers(1, 5))
    specs = tuple(
        CollectiveSpec(cid=cid, time=draw(st.integers(1, 60)),
                       participants=tuple(draw(st.lists(st.sampled_from(nodes),
                                                        min_size=1, unique=True))))
        for cid in range(draw(st.integers(1, 4))))
    crashes = draw(st.lists(st.tuples(st.sampled_from(nodes), st.integers(1, 60)),
                            max_size=4))
    outage = draw(st.none() | st.tuples(st.integers(1, 60), st.integers(0, 30)).map(
        lambda w: (w[0], w[0] + w[1])))
    return dict(n=n, collectives=specs, propose_time=draw(st.none() | st.integers(1, 40)),
                delay=UniformDelay(lo, draw(st.integers(lo, 30))),
                seed=draw(st.integers(0, 2**32)), crashes=crashes,
                fence_policy=draw(st.sampled_from(FencePolicy)), register_outage=outage)


@settings(max_examples=100, deadline=None)
@given(deploy_runs())
def test_consensus_deploy_never_runs_a_mixed_collective(case):
    report = run_consensus_deploy(**case)
    assert len(report.collectives) == len(case["collectives"])
    for inst in report.collectives:
        assert inst.aborted or len(inst.correct_versions()) <= 1
