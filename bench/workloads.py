"""The benchmark's workloads: seeded inputs, one timed op, and its checks.

Every workload builds the inputs of op i from the workload seed and i
(``op_seed``), so no two ops replay the same run and the same seed always
gives the same inputs. ``run`` is the timed part and calls only the public
entry points of ``epochsim``. ``check`` runs after the clock stops: it
returns the work the op completed, the op's canonical output (hashed into
the output digest, with trace hashes left out) and the list of failed
checks.

Import this module only after ``run.load_source`` has put the checkout's
``src`` first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from epochsim import cli, deploy, optimizer, protocols


def op_seed(workload: str, seed: int, index: int) -> int:
    """31-bit seed of op ``index``, distinct per workload, seed and index."""
    h = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big") & 0x7FFF_FFFF


@dataclass
class Checked:
    items: float                 # work units the op completed
    output: Any                  # canonical output, trace hashes excluded
    problems: list[str]          # failed checks; empty when the op is correct
    parts: dict[str, float] = field(default_factory=dict)  # sub-timings, seconds


class Battery:
    """compare_protocols at the scaled config (n=64) over RUNS run indices."""

    name = "battery"
    unit = "run indices"          # one index = one naive + one bilateral run
    rate_alias = "runs_per_s"
    N = 64
    RUNS = 8
    WORKERS = 2                   # matches a 2-core host
    traced_ops = 8
    # The traced phase runs serially: wall-clock spans of interleaved threads
    # would count the same second twice. The report is identical for any
    # worker count, so counts do not change.
    serial_kwargs = {"workers": 1}

    def inputs(self, seed: int, index: int) -> int:
        return op_seed(self.name, seed, index)

    def run(self, inp: int, workers: int = WORKERS):
        return protocols.compare_protocols(
            n=self.N, runs=self.RUNS, seed=inp, crash_prob=0.15,
            boundary_time=10, ack_timeout=30, workers=workers)

    def check(self, report) -> Checked:
        problems = []
        if report.bilateral.mixed > 0:
            problems.append(f"bilateral ended Mixed in {report.bilateral.mixed} runs")
        for label, t in (("naive", report.naive), ("bilateral", report.bilateral)):
            if t.top + t.bottom_all + t.mixed != report.runs:
                problems.append(f"{label} tallies do not sum to {report.runs}")
        return Checked(items=report.runs, output=report.to_json_obj(),
                       problems=problems)


def _deploy_report_obj(report) -> dict:
    """DeployReport content without its trace hash."""
    return {
        "mode": report.mode, "n": report.n, "seed": report.seed,
        "register": report.register.to_json_obj() if report.register else None,
        "collectives": [c.to_json_obj() for c in report.collectives],
    }


class Deploy:
    """A batch of deploy_candidates(16, seed) cases, each run naive and consensus."""

    name = "deploy"
    unit = "cases"                # both modes counted once per case
    rate_alias = "cases_per_s"
    N = 16
    CASES = 16
    traced_ops = 32
    serial_kwargs: dict = {}

    def inputs(self, seed: int, index: int) -> list:
        stream = deploy.deploy_candidates(self.N, op_seed(self.name, seed, index))
        return [next(stream) for _ in range(self.CASES)]

    def run(self, cases: list):
        return [(deploy.run_case_naive(case), deploy.run_case_consensus(case))
                for case in cases]

    def check(self, pairs) -> Checked:
        problems = []
        output = []
        for naive, consensus in pairs:
            if consensus.mixed:
                problems.append(f"consensus case {consensus.seed} has "
                                f"{len(consensus.mixed)} mixed collectives")
            output.append([_deploy_report_obj(naive), _deploy_report_obj(consensus)])
        return Checked(items=len(pairs), output=output, problems=problems)


class AdamW:
    """trajectory_divergence plus skew_consistency_check at dim=1e5, noisy task."""

    name = "adamw"
    unit = "element-steps"        # dim x optimizer steps across both trajectories
    rate_alias = "elem_steps_per_s"
    DIM = 100_000
    HORIZON = 10
    SKEW_EPOCH = 3
    NOISE = 0.1
    HYPER = optimizer.AdamWHyperparams(lr=0.05)
    traced_ops = 2
    serial_kwargs: dict = {}

    def inputs(self, seed: int, index: int) -> dict:
        s = op_seed(self.name, seed, index)
        rng = np.random.default_rng(s)
        return {
            "seed": s,
            "curvature": rng.uniform(0.5, 4.0, self.DIM).tolist(),
            "target": rng.standard_normal(self.DIM).tolist(),
            "w0": rng.standard_normal(self.DIM).tolist(),
            "g_skip": rng.standard_normal(self.DIM),
        }

    def run(self, inp: dict):
        task = optimizer.QuadraticTask.of(inp["curvature"], inp["target"],
                                          noise_scale=self.NOISE, seed=inp["seed"])
        series = optimizer.trajectory_divergence(
            task, self.HYPER, skew_epoch=self.SKEW_EPOCH, horizon=self.HORIZON,
            w0=inp["w0"])
        pair = optimizer.make_skew_pair(inp["g_skip"], self.HYPER, epoch=self.SKEW_EPOCH)
        observed = optimizer.skew_consistency_check(pair, inp["g_skip"], self.HYPER)
        return series, observed, inp["g_skip"]

    def check(self, result) -> Checked:
        series, observed, g_skip = result
        expected = optimizer.moment_skew(g_skip, self.HYPER.beta1)
        err = float(np.max(np.abs(observed - expected)))
        rows = [[r.step, r.distance, r.ref_loss, r.mixed_loss] for r in series.rows]
        problems = []
        if not err <= 1e-12:
            problems.append(f"skew closed-form error {err!r} exceeds 1e-12")
        if not all(math.isfinite(x) for row in rows for x in row[1:]):
            problems.append("non-finite distance or loss in the divergence series")
        steps = self.HORIZON + (self.HORIZON - self.SKEW_EPOCH)
        return Checked(items=self.DIM * steps,
                       output={"rows": rows, "skew_error": err}, problems=problems)


class Paper:
    """One pass of the six CLI subcommands, the three batteries at 1/20 size.

    At full defaults a pass takes about 9 s, so a run would time one or two
    passes and machine noise would swamp the result. bilateral-vs-naive,
    retry and deploy therefore run 500 instead of 10,000 runs (or cases),
    which keeps the default pass's proportions; the other three run at their
    defaults. collect.py times every subcommand at its full default.
    """

    name = "paper"
    unit = "passes"
    rate_alias = "passes_per_s"
    SUBCOMMANDS = ("lattice-table", "straddle", "bilateral-vs-naive",
                   "adamw-skew", "retry", "deploy")
    SCALED = {"bilateral-vs-naive": ["--runs", "500"], "retry": ["--runs", "500"],
              "deploy": ["--budget", "500"]}
    traced_ops = 2
    serial_kwargs: dict = {}

    def inputs(self, seed: int, index: int) -> int:
        return op_seed(self.name, seed, index)

    def run(self, inp: int) -> dict:
        results = {}
        for sub in self.SUBCOMMANDS:
            out = io.StringIO()
            t0 = time.perf_counter()
            code = cli.main([sub, "--seed", str(inp), *self.SCALED.get(sub, ())],
                            stdout=out)
            results[sub] = (code, out.getvalue(), time.perf_counter() - t0)
        return results

    def check(self, results: dict) -> Checked:
        problems = [f"{sub} exited {code}" for sub, (code, _, _) in results.items()
                    if code != 0]
        return Checked(items=1,
                       output={sub: text for sub, (_, text, _) in results.items()},
                       problems=problems,
                       parts={sub: dt for sub, (_, _, dt) in results.items()})


WORKLOADS = {w.name: w for w in (Battery, Deploy, AdamW, Paper)}
