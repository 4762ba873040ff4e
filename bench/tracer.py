"""Spans and counts for the traced run, taken from outside the package.

``install`` wraps the public entry points of every epochsim module (and
the event hooks of its components) for the duration of a ``with`` block,
and puts the originals back on exit. Each wrapped call is a span: name,
start, end, the span that caused it, and the op it belongs to. Spans are
kept in memory and written out once the run ends. A span's self time is
its duration minus the time its child spans cover; a layer is the module
a span name starts with.

Counts come from what the wrapped calls return (``Trace`` records, the
components' ``crash_log``, protocol outcomes, deploy reports) and are
taken after the span has closed, with their cost kept out of every span.

The tracer runs on one thread: the benchmark runs its traced ops serially.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from epochsim import (adversary, cli, deploy, kernel, lattice, optimizer,
                      persistence, protocols)

LAYERS = ("kernel", "persistence", "protocols", "lattice", "adversary",
          "optimizer", "deploy", "cli")


class Tracer:
    """Span stack plus per-name call counts, total and self time."""

    def __init__(self, max_spans: int = 200_000):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.edge_total: Counter = Counter()   # (parent id, child id) -> seconds
        self.counts: Counter = Counter()
        self.trace_hashes: list[str] = []
        self.excluded_s = 0.0                  # bookkeeping kept out of spans
        self.op = -1
        self.max_spans = max_spans
        self.spans_opened = 0
        self._stack: list[list] = []
        self._thread = threading.get_ident()
        self._span_cols = {"id": array("q"), "parent": array("q"), "op": array("q"),
                           "name": array("q"), "start": array("d"), "end": array("d")}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def enter(self, nid: int) -> list:
        if threading.get_ident() != self._thread:
            raise RuntimeError("a traced call ran on a second thread")
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self.spans_opened
        self.spans_opened += 1
        # [name id, start, covered by children, span id, parent span id, parent name id]
        frame = [nid, 0.0, 0.0, sid,
                 -1 if parent is None else parent[3],
                 -1 if parent is None else parent[0]]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("span closed out of order")
        nid, start, covered, sid, parent_sid, parent_nid = frame
        dur = end - start
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - covered
        self.edge_total[(parent_nid, nid)] += dur
        if stack:
            stack[-1][2] += dur
        if sid < self.max_spans:
            cols = self._span_cols
            cols["id"].append(sid)
            cols["parent"].append(parent_sid)
            cols["op"].append(self.op)
            cols["name"].append(nid)
            cols["start"].append(start)
            cols["end"].append(end)

    def exclude_since(self, t0: float) -> None:
        """Keep the time since t0 out of the enclosing span's self time."""
        dt = perf_counter() - t0
        self.excluded_s += dt
        if self._stack:
            self._stack[-1][2] += dt

    # -- reading --------------------------------------------------------------

    def total_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total[nid]

    def self_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_time[nid]

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def layer_self(self, layer: str) -> float:
        return sum(s for name, s in zip(self.names, self.self_time)
                   if name.split(".", 1)[0] == layer)

    def outermost_total(self, group: set[str]) -> float:
        """Time in spans of `group` that no other span of the group encloses."""
        inside = {self._ids[n] for n in group if n in self._ids}
        return sum(t for (parent, child), t in self.edge_total.items()
                   if child in inside and parent not in inside)

    def check_self_times(self, root: str) -> list[str]:
        """Self time lies within each span, and all self time adds up to the roots."""
        problems = [f"{name}: self {s:.6f}s outside [0, {t:.6f}s]"
                    for name, s, t in zip(self.names, self.self_time, self.total)
                    if not -1e-9 <= s <= t + 1e-9]
        accounted = sum(self.self_time) + self.excluded_s
        roots = self.total_of(root)
        if abs(accounted - roots) > 1e-6 * max(1.0, roots):
            problems.append(f"self times add to {accounted:.6f}s, root spans "
                            f"cover {roots:.6f}s")
        return problems

    def save_spans(self, path) -> None:
        cols = {k: np.frombuffer(v, dtype=np.int64 if v.typecode == "q" else np.float64)
                for k, v in self._span_cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **cols)


# ---------------------------------------------------------------------------
# Counts taken from returned values
# ---------------------------------------------------------------------------


def _count_trace(tracer: Tracer, args, kwargs, trace) -> None:
    sim = args[0]
    c = tracer.counts
    c["kernel.sims"] += 1
    for r in trace.records:
        c["kernel.events." + r.kind] += 1
        if r.dropped:
            c["kernel.dropped"] += 1
        if r.kind == "local_step" and r.payload.get("action") == "stage_advance":
            c["persistence.stage_advances"] += 1
        elif (r.kind == "deliver" and not r.dropped
              and r.payload.get("type") == "checkpoint"):
            c["persistence.attempts"] += 1
    for name in sim.component_names():
        handler = sim.handler(name)
        if isinstance(handler, persistence.PersistenceProcess):
            for rec in handler.crash_log:
                c["persistence.crashes." + rec.stage.lower()] += 1
    tracer.trace_hashes.append(trace.hash64())


def _count_useful_advance(tracer: Tracer, args, kwargs) -> None:
    proc, _sim, event = args
    p = event.payload
    if (event.kind is kernel.EventKind.LOCAL_STEP
            and p.get("action") == "stage_advance" and p.get("attempt") == proc.attempt):
        tracer.counts["persistence.useful_advances"] += 1


def _count_decision(tracer: Tracer, args, kwargs, outcome) -> None:
    tracer.counts["protocols.decisions." + outcome.decision.value] += 1


def _count_collectives(tracer: Tracer, args, kwargs, report) -> None:
    tracer.counts["deploy.collectives"] += len(report.collectives)
    tracer.counts["deploy.aborted"] += sum(c.aborted for c in report.collectives)


def _count_trials(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["lattice.mc_trials"] += result.trials


def _count_tries(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["adversary.search_tries"] += result.tried


def _count_step(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["optimizer.steps"] += 1
    tracer.counts["optimizer.elem_steps"] += result.w.size


# (owner, attribute[, count after return[, count before call]]); the span is
# named <module>.<attribute> or <module>.<class>.<attribute>.
ENTRY_POINTS = [
    (kernel, "new_simulation"),
    (kernel.Simulation, "__init__"),
    (kernel.Simulation, "register"),
    (kernel.Simulation, "schedule"),
    (kernel.Simulation, "send"),
    (kernel.Simulation, "set_timer"),
    (kernel.Simulation, "inject_crash"),
    (kernel.Simulation, "run_until_quiescent", _count_trace),
    (persistence.PersistenceProcess, "on_event", None, _count_useful_advance),
    (persistence.PersistenceProcess, "on_crash"),
    (persistence.PersistenceProcess, "on_recover"),
    (protocols, "run_naive", _count_decision),
    (protocols, "run_bilateral", _count_decision),
    (protocols, "compare_protocols"),
    (protocols, "retry_sweep"),
    (protocols.BilateralCoordinator, "on_event"),
    (protocols.BoundaryProbe, "on_event"),
    (lattice, "monte_carlo_atomicity", _count_trials),
    (lattice.EpochVector, "classify"),
    (adversary, "witness_mixed"),
    (adversary, "straddle_trial"),
    (adversary, "search_schedules", _count_tries),
    (deploy, "run_case_naive"),
    (deploy, "run_case_consensus"),
    (deploy, "run_naive_deploy", _count_collectives),
    (deploy, "run_consensus_deploy", _count_collectives),
    (deploy.FirmwareNode, "on_event"),
    (deploy._CollectiveRunner, "on_event"),
    (deploy._ProposeHook, "on_event"),
    (optimizer, "adamw_step", _count_step),
    (optimizer, "make_skew_pair"),
    (optimizer, "skew_consistency_check"),
    (optimizer, "run_trajectory"),
    (optimizer, "trajectory_divergence"),
    (optimizer.QuadraticTask, "of"),
    (optimizer.QuadraticTask, "gradient"),
    (optimizer.QuadraticTask, "loss"),
    (optimizer.QuadraticTask, "noise"),
    (cli, "main"),
]


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _wrap(tracer: Tracer, fn, name: str, after, before):
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            t0 = perf_counter()
            before(tracer, args, kwargs)
            tracer.exclude_since(t0)
        frame = enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if after is not None:
            t0 = perf_counter()
            after(tracer, args, kwargs, result)
            tracer.exclude_since(t0)
        return result

    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Wrap every listed entry point for the duration of the block."""
    restore: list[tuple[object, str, object]] = []
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "epochsim" or name.startswith("epochsim.")]
    try:
        for owner, attr, *hooks in ENTRY_POINTS:
            after, before = (*hooks, None, None)[:2]
            name = _span_name(owner, attr)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, raw.__func__, name, after, before))
                else:
                    wrapped = _wrap(tracer, raw, name, after, before)
                restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, original, name, after, before)
            # Modules that imported the function by name hold their own binding.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

EVENT_KINDS = ("deliver", "local_step", "timer_fire", "crash", "recover")
STAGES = tuple(s.name.lower() for s in persistence.PersistenceStage)
SETUP_SPANS = {"kernel.new_simulation", "kernel.Simulation.__init__",
               "kernel.Simulation.register"}
COORDINATOR_SPANS = ("protocols.BilateralCoordinator.on_event",)
# AdamW reads w, m, v and the gradient and writes w, m and v: 7 float64 arrays.
ADAMW_BYTES_PER_ELEM = 7 * 8


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced phase, keyed by their published names.

    A metric whose layer the workload never reaches reads 0.
    """
    c = t.counts
    events = sum(c["kernel.events." + k] for k in EVENT_KINDS)
    kernel_self = t.layer_self("kernel")
    m: dict[str, float] = {"kernel.events": events}
    for k in EVENT_KINDS:
        m["kernel.events." + k] = c["kernel.events." + k]
    m.update({
        "kernel.dropped_ratio": _ratio(c["kernel.dropped"], events),
        "kernel.us_per_event": _ratio(kernel_self * 1e6, events),
        "kernel.self_s": kernel_self,
        "kernel.sims": c["kernel.sims"],
        "kernel.setup_s": t.outermost_total(SETUP_SPANS),
        "persistence.self_s": t.layer_self("persistence"),
        "persistence.attempts": c["persistence.attempts"],
        "persistence.stage_advance_share": _ratio(c["persistence.stage_advances"], events),
        "persistence.useful_advance_ratio": _ratio(c["persistence.useful_advances"],
                                                   c["persistence.stage_advances"]),
    })
    for s in STAGES:
        m["persistence.crashes." + s] = c["persistence.crashes." + s]
    m.update({
        "protocols.run_naive_s": t.total_of("protocols.run_naive"),
        "protocols.run_bilateral_s": t.total_of("protocols.run_bilateral"),
        "protocols.self_s": t.layer_self("protocols"),
        "protocols.coord_self_s": sum(t.self_of(n) for n in COORDINATOR_SPANS),
        "protocols.decisions.committed": c["protocols.decisions.committed"],
        "protocols.decisions.rolled_back": c["protocols.decisions.rolled_back"],
        "protocols.decisions.no_decision": c["protocols.decisions.no_decision"],
        "protocols.retry_sweep_s": t.total_of("protocols.retry_sweep"),
        "lattice.mc_trials_per_s": _ratio(c["lattice.mc_trials"],
                                          t.total_of("lattice.monte_carlo_atomicity")),
        "lattice.classify_calls": t.calls_of("lattice.EpochVector.classify"),
        "adversary.witness_s": t.total_of("adversary.witness_mixed"),
        "adversary.search_tries": c["adversary.search_tries"],
        "deploy.run_naive_s": t.total_of("deploy.run_naive_deploy"),
        "deploy.run_consensus_s": t.total_of("deploy.run_consensus_deploy"),
        "deploy.self_s": t.layer_self("deploy"),
        "deploy.collectives": c["deploy.collectives"],
        "deploy.aborted_ratio": _ratio(c["deploy.aborted"], c["deploy.collectives"]),
        "optimizer.adamw_step_s": t.total_of("optimizer.adamw_step"),
        "optimizer.ns_per_elem_step": _ratio(t.total_of("optimizer.adamw_step") * 1e9,
                                             c["optimizer.elem_steps"]),
        "optimizer.gradient_s": t.total_of("optimizer.QuadraticTask.gradient"),
        "optimizer.loss_s": t.total_of("optimizer.QuadraticTask.loss"),
        "optimizer.noise_s": t.total_of("optimizer.QuadraticTask.noise"),
        "optimizer.divergence_self_s": t.self_of("optimizer.trajectory_divergence"),
        "optimizer.bytes_per_step_computed": _ratio(
            ADAMW_BYTES_PER_ELEM * c["optimizer.elem_steps"], c["optimizer.steps"]),
    })
    return m
