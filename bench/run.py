#!/usr/bin/env python3
"""epochsim benchmark: one workload, timed end to end or traced by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload battery --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): battery, deploy, adamw, paper.

--trace 0 measures with no wrappers installed. The ops run back to back
(a closed loop with one client) for --seconds, with a short reference op
(reference.py) after every quarter second of op time. Each time is also
reported calibrated: multiplied by the reference op's nominal duration over
its duration measured just before and after. The host's speed swings by up
to 1.5x for minutes at a time and the calibration cancels that. The
end-to-end metrics named in BENCHMARK.json:
  setup_s         median calibrated wall time of fresh interpreters that
                  import epochsim, build op 0's inputs and run it once
                  (warm-up), spawned one after another after the ops;
  cal_work_per_s  work completed per calibrated second of op time; the unit
                  of work is the workload's (run indices, cases,
                  element-steps, passes);
  cal_op_ms_p50   median calibrated time of one op;
  peak_rss_mb     peak resident set size of the measuring process plus
                  that of the largest child process it reaped during the
                  ops, such as a pool worker (the set-up processes come
                  later and are not counted). With several workers only
                  the largest is counted.
The uncalibrated figures (raw_setup_s, the workload's own rate such as
runs_per_s, raw_op_ms with p90 or p75 and the op count) are printed too.

--trace 1 runs a fixed set of ops (so counts repeat exactly at a seed):
first untraced, cycling over the set for a third of --seconds (battery:
two thirds, alternating workers=1 and workers=2 op by op), then once with
every public entry point wrapped in a span (tracer.py). It reports the
per-layer metrics named in BENCHMARK.json, and writes the spans.

Every op is checked; an op that raises or fails a check counts as
failed. Each op's canonical output is hashed (trace hashes excluded); a
traced op also hashes the traces its simulations return. The run fails
when a digest or a count differs between two executions of the same op:
within the run, and against earlier runs in this checkout at the same
seed of the same sources (kept in .bench_out/digests.json, keyed by a
hash of src/epochsim and bench/*.py). Runs of different sources are not
compared: a change to the program may change outputs and counts, and
whether it keeps the paper's results is for the golden tests to say. A
failed run prints its summary with "correct": false and exits with code
1. Results, with machine facts, go to .bench_out/; the last line of
stdout is the JSON summary.

The package is imported from the checkout's src/, never from an installed
copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# Seed kept out of every run made while the benchmark and later changes
# were written; a claimed gain must also hold at this seed.
HELD_OUT_SEED = 9091
# Fresh set-up processes per run; their times vary by a fifth, so take the
# median of several.
SETUP_SAMPLES = 7


def load_source() -> None:
    """Import epochsim from ROOT/src, or exit 2 when the checkout lacks it."""
    package = ROOT / "src" / "epochsim"
    if not (package / "__init__.py").is_file():
        print(f"error: no epochsim sources under {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import epochsim

    if Path(epochsim.__file__).resolve().parent != package.resolve():
        print(f"error: epochsim imported from {epochsim.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def source_hash() -> str:
    """Hash of the sources that decide outputs and counts, names and contents.

    That is every file under src/epochsim and the benchmark's own Python
    files (they make the inputs and choose which calls are counted).
    """
    h = hashlib.blake2b(digest_size=16)
    files = [p for p in (ROOT / "src" / "epochsim").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def digest(obj) -> str:
    """Canonical 128-bit hash of a JSON-able object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    index: int
    seconds: float = 0.0
    items: float = 0.0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(wl, seed: int, index: int, kwargs: dict, tracer=None) -> Op:
    """Build op `index`'s inputs, time the op, then check it (untimed)."""
    op = Op(index)
    try:
        inp = wl.inputs(seed, index)
        if tracer is None:
            t0 = perf_counter()
            raw = wl.run(inp, **kwargs)
            op.seconds = perf_counter() - t0
        else:
            tracer.op = index
            root = tracer.name_id("bench.op")
            before = tracer.total[root]
            frame = tracer.enter(root)
            try:
                raw = wl.run(inp, **kwargs)
            finally:
                tracer.exit(frame)
            op.seconds = tracer.total[root] - before
        checked = wl.check(raw)
    except Exception:
        op.problems.append(traceback.format_exc(limit=8))
        return op
    op.items = checked.items
    op.digest = digest(checked.output)
    op.problems = checked.problems
    op.parts = checked.parts
    return op


def rate(ops: list[Op]) -> float:
    good = [o for o in ops if o.ok]
    busy = sum(o.seconds for o in good)
    return sum(o.items for o in good) / busy if busy else 0.0


def quantiles_ms(ops: list[Op]) -> dict:
    """Median plus the highest of p90/p75 with at least ten ops beyond it."""
    times = sorted(o.seconds * 1e3 for o in ops if o.ok)
    out: dict = {"ops": len(times)}
    if not times:
        return out
    out["p50"] = statistics.median(times)
    for pct in (90, 75):
        if len(times) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(times, n=100)[pct - 1]
            break
    return out


# ---------------------------------------------------------------------------
# Digest store: same seed, same op index -> same digests and counts
# ---------------------------------------------------------------------------


class DigestStore:
    """Digests and counts of earlier runs, per source hash, workload and seed.

    Runs of different sources are never compared with each other.
    """

    # Ops beyond this index are compared within a run only, which keeps the
    # store small on workloads with thousands of short ops.
    MAX_INDEX = 64

    def __init__(self, path: Path, source: str):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.source = source

    def reconcile(self, workload: str, seed: int, kind: str,
                  values: dict[str, object]) -> list[str]:
        """Compare values with earlier runs at this seed and record new ones."""
        known = self.data.setdefault(self.source, {}).setdefault(workload, {}) \
                         .setdefault(str(seed), {}).setdefault(kind, {})
        values = {k: v for k, v in values.items() if int(k) < self.MAX_INDEX}
        problems = [f"{kind} of op {k} differs from an earlier run at seed {seed}"
                    for k, v in values.items() if k in known and known[k] != v]
        for k, v in values.items():
            known.setdefault(k, v)
        return problems

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


def same_op_mismatches(ops: list[Op]) -> list[str]:
    first: dict[int, str] = {}
    problems = []
    for o in ops:
        if o.digest is None:
            continue
        if first.setdefault(o.index, o.digest) != o.digest:
            problems.append(f"output digest of op {o.index} differs between executions")
    return problems


# ---------------------------------------------------------------------------
# Untraced run
# ---------------------------------------------------------------------------


class Calibrator:
    """Times the reference op (reference.py) next to measured work."""

    # A reference op runs after this much op time, about 5% extra work.
    EVERY_S = 0.25

    def __init__(self):
        from reference import NOMINAL_S, python_reference

        self.op = python_reference
        self.nominal = NOMINAL_S

    def sample(self, repeats: int = 1) -> float:
        """Median time of `repeats` reference ops, run with the cyclic GC off.

        The reference makes no cycles; with the collector off, its time does
        not depend on how many objects the program under test keeps alive.
        """
        times = []
        gc.disable()
        try:
            for _ in range(repeats):
                t0 = perf_counter()
                self.op()
                times.append(perf_counter() - t0)
        finally:
            gc.enable()
        return statistics.median(times)


def measure_setup(wl, seed: int, cal: Calibrator) -> tuple[list[float], list[float]]:
    """Raw and calibrated wall times of fresh set-up processes."""
    raw, calibrated = [], []
    for _ in range(SETUP_SAMPLES):
        before = cal.sample(3)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), wl.name,
                               str(seed)], cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        seconds = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ref = (before + cal.sample(3)) / 2
        raw.append(seconds)
        calibrated.append(seconds * cal.nominal / ref)
    return raw, calibrated


def untraced_run(wl, seed: int, seconds: float) -> dict:
    cal = Calibrator()
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    warm = run_op(wl, seed, 0, {})
    ops: list[Op] = []
    scale: list[float] = []          # per op: nominal / reference time around it
    group: list[Op] = []
    ref = cal.sample()
    since = 0.0
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        op = run_op(wl, seed, len(ops), {})
        ops.append(op)
        group.append(op)
        since += op.seconds
        if since >= cal.EVERY_S or perf_counter() - start >= seconds:
            nxt = cal.sample()
            scale += [cal.nominal / ((ref + nxt) / 2)] * len(group)
            ref, group, since = nxt, [], 0.0
    wall = perf_counter() - start
    # ru_maxrss of children is the largest child's; it counts only if a
    # child reaped during the ops raised it (imports may start small ones).
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + (children if children > children_before else 0)) / 1024
    setup_raw, setup_cal = measure_setup(wl, seed, cal)
    good = [(o, f) for o, f in zip(ops, scale) if o.ok]
    cal_busy = sum(o.seconds * f for o, f in good)
    cal_ms = [o.seconds * f * 1e3 for o, f in good]
    raw_q = quantiles_ms(ops)
    every = [warm] + ops
    metrics = {
        "setup_s": statistics.median(setup_cal),
        "cal_work_per_s": sum(o.items for o, _ in good) / cal_busy if cal_busy else 0.0,
        "cal_op_ms_p50": statistics.median(cal_ms) if cal_ms else 0.0,
        "peak_rss_mb": rss_mb,
    }
    return {
        "metrics": metrics,
        "ops": every,
        "consistency": same_op_mismatches(every),
        "digests": {str(o.index): o.digest for o in ops if o.digest},
        "detail": {
            "raw_setup_s": statistics.median(setup_raw),
            wl.rate_alias: rate(ops),
            "raw_op_ms": raw_q,
            "host_speed": statistics.median(scale) if scale else None,
            "setup_samples_s": setup_raw,
            "wall_s": wall,
        },
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def cycle(wl, seed: int, budget: float, variants: list[dict]) -> list[list[Op]]:
    """Untraced ops over the fixed set until `budget` seconds pass.

    Each op runs once per variant (keyword arguments of ``wl.run``), one
    right after the other, so a slow spell of the host hits all alike.
    """
    ops: list[list[Op]] = [[] for _ in variants]
    start = perf_counter()
    n = 0
    while n < wl.traced_ops or perf_counter() - start < budget:
        for out, kwargs in zip(ops, variants):
            out.append(run_op(wl, seed, n % wl.traced_ops, kwargs))
        n += 1
    return ops


def traced_ops(wl, seed: int, tracer, kwargs: dict,
               count: int) -> tuple[list[Op], list[dict]]:
    """Run ops 0..count-1 under `tracer`; per-op counts and trace digests."""
    ops, per_op = [], []
    for i in range(count):
        counts0, calls0 = dict(tracer.counts), list(tracer.calls)
        hashes0 = len(tracer.trace_hashes)
        ops.append(run_op(wl, seed, i, kwargs, tracer))
        counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()
                  if v != counts0.get(k, 0)}
        calls0 += [0] * (len(tracer.calls) - len(calls0))
        for name, n1, n0 in zip(tracer.names, tracer.calls, calls0):
            if n1 != n0:
                counts["calls." + name] = n1 - n0
        per_op.append({"counts": counts,
                       "trace_digest": digest(tracer.trace_hashes[hashes0:])})
    return ops, per_op


def traced_run(wl, seed: int, seconds: float) -> dict:
    import tracer as tr

    serial = wl.serial_kwargs
    warm = run_op(wl, seed, 0, {})
    variants = [serial, {}] if serial else [serial]
    untraced, *rest = cycle(wl, seed, seconds * len(variants) / 3, variants)
    parallel = rest[0] if rest else []

    t = tr.Tracer()
    with tr.install(t):
        ops, per_op = traced_ops(wl, seed, t, serial, wl.traced_ops)
    # Op 0 once more under a fresh tracer: its counts must repeat exactly.
    repeat_tracer = tr.Tracer(max_spans=0)
    with tr.install(repeat_tracer):
        repeat_ops, repeat_per_op = traced_ops(wl, seed, repeat_tracer, serial, 1)

    consistency = same_op_mismatches([warm] + untraced + parallel + ops + repeat_ops)
    if repeat_per_op[0] != per_op[0]:
        consistency.append("counts or trace digest of op 0 differ between two traced runs")
    consistency += t.check_self_times("bench.op")

    traced_busy = sum(o.seconds for o in ops if o.ok) - t.excluded_s
    traced_rate = sum(o.items for o in ops if o.ok) / traced_busy if traced_busy > 0 else 0.0
    metrics = tr.layer_metrics(t)
    metrics["protocols.workers_speedup"] = (rate(parallel) / rate(untraced)
                                            if parallel and rate(untraced) else 0.0)
    metrics["tracing.throughput_ratio"] = (traced_rate / rate(untraced)
                                           if rate(untraced) else 0.0)
    parts: dict[str, list[float]] = {}
    for o in untraced:
        for sub, dt in o.parts.items():
            parts.setdefault(sub, []).append(dt)
    from workloads import Paper

    for sub in Paper.SUBCOMMANDS:
        key = "cli." + sub.replace("-", "_") + "_s"
        metrics[key] = statistics.median(parts[sub]) if sub in parts else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.npz"
    t.save_spans(spans_path)
    return {
        "metrics": metrics,
        "ops": [warm] + untraced + parallel + ops + repeat_ops,
        "consistency": consistency,
        "digests": {str(o.index): o.digest for o in ops if o.digest},
        "traced": {str(i): p for i, p in enumerate(per_op)},
        "detail": {
            "traced_ops": wl.traced_ops,
            "trace_digest": digest([p["trace_digest"] for p in per_op]),
            "untraced_rate": rate(untraced),
            "parallel_rate": rate(parallel) if parallel else None,
            "traced_rate": traced_rate,
            "bookkeeping_s": t.excluded_s,
            "spans": t.spans_opened,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "layer_self_s": {layer: t.layer_self(layer) for layer in tr.LAYERS + ("bench",)},
            "by_span": {name: {"calls": t.calls_of(name), "total_s": t.total_of(name),
                               "self_s": t.self_of(name)} for name in t.names},
        },
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="epochsim benchmark")
    p.add_argument("--workload", required=True,
                   choices=("battery", "deploy", "adamw", "paper"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_source()
    spec = metric_spec()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    result = (traced_run if args.trace else untraced_run)(wl, args.seed, args.seconds)

    published = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in published if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in published}

    ops = result["ops"]
    failed = sum(not o.ok for o in ops)
    OUT_DIR.mkdir(exist_ok=True)
    source = source_hash()
    store = DigestStore(OUT_DIR / "digests.json", source)
    consistency = list(result["consistency"])
    consistency += store.reconcile(wl.name, args.seed, "output", result["digests"])
    if args.trace:
        consistency += store.reconcile(wl.name, args.seed, "traced", result["traced"])
    store.save()
    correct = failed == 0 and not consistency

    by_index: dict[int, str] = {}
    for o in ops:
        if o.digest and o.index < wl.traced_ops:
            by_index.setdefault(o.index, o.digest)
    output_digest = digest([by_index.get(i) for i in range(wl.traced_ops)])

    report = {
        "workload": wl.name,
        "why": wl.__doc__,
        "unit_of_work": wl.unit,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_facts(),
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "ops_failed_ratio": failed / len(ops),
        "op_seeds": {str(i): workloads.op_seed(wl.name, args.seed, i)
                     for i in range(wl.traced_ops)},
        "output_digest": output_digest,
        "source_hash": source,
        "problems": consistency + [p for o in ops for p in o.problems][:20],
        "metrics": metrics,
        "detail": result["detail"],
    }
    name = f"{wl.name}-seed{args.seed}-{'traced' if args.trace else 'untraced'}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True))

    for p in report["problems"]:
        print("problem:", p.rstrip(), file=sys.stderr)
    print(f"workload {wl.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  ops {len(ops)}  failed {failed}  "
          f"output digest {output_digest}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    for key, value in result["detail"].items():
        if key == "raw_op_ms" or not isinstance(value, (dict, list)):
            print(f"  {key:<40} {value}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
