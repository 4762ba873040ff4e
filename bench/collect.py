#!/usr/bin/env python3
"""Write one committed results file: every workload in both modes, plus CLI rows.

    python3 bench/collect.py --seed 1 --seconds 20 --out bench/BENCH_1.json

Runs bench/run.py once per workload untraced and once traced, and keeps
each run's results file. Then times each CLI subcommand at its default
config and at the scaled configs the roadmap tracks, each as a fresh
process (import included), median of three runs, with the child's peak
RSS. These rows are named cli_default.<subcommand>_s and
cli_scaled.<subcommand>_<config>_s, in plain (uncalibrated) seconds, each
with the host speed measured around it (nominal over measured
reference-op time, see reference.py). They are not the per-layer
cli.<subcommand>_s of the paper workload, which are in-process times of
a pass with three batteries at 1/20 size.

A run whose report is not correct, or a CLI row with a nonzero exit code,
stops the collection and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from run import (BENCH_DIR, HELD_OUT_SEED, OUT_DIR, ROOT, Calibrator, load_source,
                 machine_facts)

WORKLOADS = ("battery", "deploy", "adamw", "paper")

# (metric name, argv after `python3 -m epochsim.cli`)
CLI_ROWS = [
    ("cli_default.lattice_table_s", ["lattice-table"]),
    ("cli_scaled.lattice_table_trials1e6_s", ["lattice-table", "--trials", "1000000"]),
    ("cli_default.straddle_s", ["straddle"]),
    ("cli_scaled.straddle_n64_s", ["straddle", "--n", "64"]),
    ("cli_default.bilateral_vs_naive_s", ["bilateral-vs-naive"]),
    ("cli_default.adamw_skew_s", ["adamw-skew"]),
    ("cli_scaled.adamw_skew_dim1e5_h200_s",
     ["adamw-skew", "--dim", "100000", "--horizon", "200"]),
    ("cli_default.retry_s", ["retry"]),
    ("cli_default.deploy_s", ["deploy"]),
    ("cli_scaled.deploy_n16_s", ["deploy", "--n", "16"]),
]


def time_cli(argv: list[str]) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS (MB) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "epochsim.cli", *argv], cwd=ROOT,
                            env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", default=str(BENCH_DIR / "BENCH_1.json"))
    args = p.parse_args()
    load_source()

    results: dict = {}
    for w in WORKLOADS:
        for trace, mode in ((0, "untraced"), (1, "traced")):
            path = OUT_DIR / f"{w}-seed{args.seed}-{mode}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], cwd=ROOT,
                                  stdout=subprocess.DEVNULL)
            report = json.loads(path.read_text()) if path.exists() else None
            if proc.returncode != 0 or not report or not report["correct"]:
                problems = report["problems"][:3] if report else "no report"
                sys.exit(f"{w} {mode} run at seed {args.seed} failed "
                         f"(exit {proc.returncode}): {problems}")
            report.pop("machine")
            results.setdefault(w, {})[mode] = report

    rows = {}
    cal = Calibrator()
    for name, argv in CLI_ROWS:
        before = cal.sample(3)
        runs = [time_cli(argv) for _ in range(3)]
        if any(r[1] != 0 for r in runs):
            sys.exit(f"epochsim.cli {' '.join(argv)} exited {[r[1] for r in runs]}")
        rows[name] = {
            "host_speed": cal.nominal / ((before + cal.sample(3)) / 2),
            "argv": argv,
            "value": statistics.median(r[0] for r in runs),
            "unit": "s",
            "samples_s": [r[0] for r in runs],
            "peak_rss_mb": max(r[2] for r in runs),
        }

    out = {
        "machine": machine_facts(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "workloads": results,
        "cli_rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
