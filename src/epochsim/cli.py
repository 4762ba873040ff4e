"""Command-line front end: reproduce every headline result from one binary.

Subcommands:

  lattice-table       analytic atomicity table, optional Monte Carlo columns
  straddle            boundary-straddling crash witnesses and controls
  bilateral-vs-naive  side-by-side protocol battery under crash injection
  adamw-skew          moment-skew check and trajectory divergence series
  retry               retry loop sweep vs the geometric baseline
  deploy              naive vs consensus fleet deployment battery

Every subcommand takes --seed and emits it in the output, and rerunning
with an identical configuration produces byte-identical output. --config
names a JSON object whose keys are flag names; each entry is parsed as if
given on the command line before the user's own flags, so flags win.

Exit codes: 0 all embedded checks passed; 2 usage error; 3 lattice table
mismatch; 4 expected witness not found; 5 bilateral run ended mixed;
6 moment-skew closed form violated; 7 consensus deploy produced a mixed
collective.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Sequence, TextIO

import numpy as np

from . import adversary, deploy, lattice, optimizer, protocols

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TABLE_MISMATCH = 3
EXIT_NO_WITNESS = 4
EXIT_BILATERAL_MIXED = 5
EXIT_SKEW_MISMATCH = 6
EXIT_DEPLOY_MIXED = 7

_EPILOG = (
    "exit codes: 0 ok, 2 usage, 3 table mismatch, 4 missing witness, "
    "5 bilateral mixed state, 6 skew mismatch, 7 consensus deploy mixed"
)


def _json_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _config_flags(path: str) -> list[str]:
    """Flags for the JSON object in `path`: key k becomes --k ("_" read as
    "-"), true the bare switch, false nothing, any other v --k str(v)."""
    with open(path, "r", encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("expected a JSON object")
    flags: list[str] = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False:
            flags += [flag, str(value)]
    return flags


# ---------------------------------------------------------------------------
# lattice-table
# ---------------------------------------------------------------------------


def cmd_lattice_table(args: argparse.Namespace, out: TextIO) -> int:
    if args.trials < 0:
        raise ValueError("--trials must not be negative")
    if args.q is not None or args.n is not None:
        if args.q is None or args.n is None:
            raise ValueError("--q and --n must be given together")
        rows = [lattice.reliability_row(args.q, args.n)]
        check = False
    else:
        rows = lattice.reliability_table()
        check = True
    mc = None
    if args.trials > 0:
        mc = [lattice.monte_carlo_atomicity(
                  lattice.BinaryModelParams(q=row.q, n=row.n),
                  trials=args.trials,
                  seed=protocols.derive_seed(args.seed, i))
              for i, row in enumerate(rows)]
    if args.format == "json":
        print(_json_dumps(lattice.render_table_json(rows, mc, seed=args.seed)), file=out)
    elif args.format == "csv":
        print(lattice.render_table_csv(rows, mc), file=out)
    else:
        print(f"seed: {args.seed}", file=out)
        print(lattice.render_table_text(rows, mc), file=out)
    if check and not all(r.matches_reference for r in rows):
        return EXIT_TABLE_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# straddle
# ---------------------------------------------------------------------------


def cmd_straddle(args: argparse.Namespace, out: TextIO) -> int:
    grid = adversary.boundary_grid(args.grid, t_max=args.t_max, seed=args.seed)
    witnesses = 0
    first: adversary.MixedWitness | None = None
    for t_c in grid:
        if args.no_crash:
            _, outcome = adversary.straddle_trial(args.n, t_c, seed=args.seed,
                                                  crash=False)
            if outcome.vector_class is lattice.AtomicityClass.MIXED:
                witnesses += 1
        else:
            try:
                witness = adversary.witness_mixed(args.n, t_c, seed=args.seed)
            except adversary.WitnessFalsification as exc:
                print(f"witness failed at t_c={t_c}: {exc}", file=out)
                return EXIT_NO_WITNESS
            witnesses += 1
            if first is None:
                first = witness
    label = "negative control (no crash)" if args.no_crash else "crash witnesses"
    payload = {
        "seed": args.seed, "n": args.n, "grid": len(grid),
        "mixed": witnesses, "label": label,
    }
    if args.format == "json":
        print(_json_dumps(payload), file=out)
    elif args.format == "csv":
        print("seed,n,grid,mixed,label", file=out)
        print(f"{args.seed},{args.n},{len(grid)},{witnesses},{label}", file=out)
    else:
        print(f"seed: {args.seed}", file=out)
        print(f"{label}: {witnesses}/{len(grid)} mixed (n={args.n})", file=out)
        if first is not None and args.narrative:
            print(first.narrative(), file=out)
    if args.no_crash:
        return EXIT_OK if witnesses == 0 else EXIT_NO_WITNESS
    return EXIT_OK if witnesses == len(grid) else EXIT_NO_WITNESS


# ---------------------------------------------------------------------------
# bilateral-vs-naive
# ---------------------------------------------------------------------------


def cmd_bilateral_vs_naive(args: argparse.Namespace, out: TextIO) -> int:
    report = protocols.compare_protocols(
        n=args.n, runs=args.runs, seed=args.seed, crash_prob=args.crash_prob,
        boundary_time=args.t_c, ack_timeout=args.ack_timeout)
    obj = report.to_json_obj()
    if args.format == "json":
        print(_json_dumps(obj), file=out)
    elif args.format == "csv":
        print("protocol,top,bottom_all,mixed,no_decision,disagreements", file=out)
        for proto in ("naive", "bilateral"):
            t = obj[proto]
            print(f"{proto},{t['top']},{t['bottom_all']},{t['mixed']},"
                  f"{t['no_decision']},{t['disagreements']}", file=out)
    else:
        print(f"seed: {args.seed}  runs: {args.runs}  n: {args.n}", file=out)
        for proto in ("naive", "bilateral"):
            t = obj[proto]
            print(f"{proto:>10}: top={t['top']} bottom_all={t['bottom_all']} "
                  f"mixed={t['mixed']} no_decision={t['no_decision']} "
                  f"disagreements={t['disagreements']}", file=out)
        print(f"naive disagreement rate: {report.naive_disagreement_rate:.4f}", file=out)
    return EXIT_OK if report.bilateral.mixed == 0 else EXIT_BILATERAL_MIXED


# ---------------------------------------------------------------------------
# adamw-skew
# ---------------------------------------------------------------------------


# Size bounds, checked before anything is allocated. A run holds a few
# dozen float64 arrays of --dim entries (its peak RSS is about 260 MB at the
# largest --dim) and one row per step up to --horizon.
ADAMW_MAX_DIM = 1_000_000
ADAMW_MAX_HORIZON = 10_000


def cmd_adamw_skew(args: argparse.Namespace, out: TextIO) -> int:
    if args.dim < 1:
        raise ValueError("--dim must be at least 1")
    if args.dim > ADAMW_MAX_DIM:
        raise ValueError(f"--dim must be at most {ADAMW_MAX_DIM}")
    if args.horizon > ADAMW_MAX_HORIZON:
        raise ValueError(f"--horizon must be at most {ADAMW_MAX_HORIZON}")
    if not math.isfinite(args.g_skip):
        raise ValueError("--g-skip must be finite")
    hyper = optimizer.AdamWHyperparams(lr=args.lr, beta1=args.beta1, beta2=args.beta2)
    g_skip = np.full(args.dim, args.g_skip)
    # Values too large for float64 (say --lr 1e308 or --g-skip 1e200) are a
    # usage error, caught where the arithmetic first overflows.
    try:
        with np.errstate(over="raise", invalid="raise"):
            pair = optimizer.make_skew_pair(g_skip, hyper, epoch=max(args.skew_epoch, 1))
            observed = optimizer.skew_consistency_check(pair, g_skip, hyper)
            expected = optimizer.moment_skew(g_skip, args.beta1)
            err = float(np.max(np.abs(observed - expected)))
            task = optimizer.QuadraticTask.of(
                [2.0] * args.dim, [0.0] * args.dim, noise_scale=args.noise,
                seed=args.seed)
            series = optimizer.trajectory_divergence(
                task, hyper, skew_epoch=args.skew_epoch, horizon=args.horizon,
                w0=[1.0] * args.dim)
    except FloatingPointError as exc:
        raise ValueError(f"float64 arithmetic failed ({exc}); "
                         f"--lr, --g-skip or --noise is too large") from None
    summary = {
        "seed": args.seed, "beta1": args.beta1, "dim": args.dim,
        "skew_per_unit_gradient": float(observed[0] / args.g_skip) if args.g_skip else 0.0,
        "closed_form_error": err,
        "skew_epoch": args.skew_epoch, "horizon": args.horizon,
        "final_distance": series.rows[-1].distance,
    }
    if args.format == "json":
        obj = dict(summary)
        obj["series"] = [{"step": r.step, "distance": r.distance,
                          "ref_loss": r.ref_loss, "mixed_loss": r.mixed_loss}
                         for r in series.rows]
        print(_json_dumps(obj), file=out)
    elif args.format == "csv":
        print(series.to_csv(), file=out)
    else:
        print(f"seed: {args.seed}", file=out)
        print(f"one-step moment shift per unit gradient at beta1={args.beta1}: "
              f"{summary['skew_per_unit_gradient']:.6f} "
              f"(closed-form error {err:.3e})", file=out)
        print(f"weight distance at horizon {args.horizon}: "
              f"{summary['final_distance']:.6e}", file=out)
    # Rounding error grows with |g_skip|, so the tolerance is relative above 1.
    return EXIT_OK if err <= 1e-12 * max(1.0, abs(args.g_skip)) else EXIT_SKEW_MISMATCH


# ---------------------------------------------------------------------------
# retry
# ---------------------------------------------------------------------------


def cmd_retry(args: argparse.Namespace, out: TextIO) -> int:
    alphas = [float(a) for a in args.alphas.split(",") if a]
    summaries = protocols.retry_sweep(
        p0=args.p0, n=args.n, alphas=alphas, runs=args.runs, seed=args.seed,
        max_attempts=args.max_attempts)
    baseline = protocols.geometric_baseline(args.p0, args.n)
    if args.format == "json":
        obj = {
            "seed": args.seed, "p0": args.p0, "n": args.n,
            "geometric_baseline": baseline,
            "sweep": [{"alpha": s.alpha, "mean_attempts": s.mean_attempts,
                       "success_rate": s.success_rate, "mean_load": s.mean_load}
                      for s in summaries],
        }
        print(_json_dumps(obj), file=out)
    elif args.format == "csv":
        print("alpha,mean_attempts,success_rate,mean_load,geometric_baseline", file=out)
        for s in summaries:
            print(f"{s.alpha:g},{s.mean_attempts:.6f},{s.success_rate:.6f},"
                  f"{s.mean_load:.6f},{baseline:.6f}", file=out)
    else:
        print(f"seed: {args.seed}  p0: {args.p0}  n: {args.n}  "
              f"geometric baseline: {baseline:.4f}", file=out)
        for s in summaries:
            print(f"alpha={s.alpha:<6g} mean_attempts={s.mean_attempts:<9.4f} "
                  f"success_rate={s.success_rate:<8.4f} mean_load={s.mean_load:.4f}",
                  file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# deploy
# ---------------------------------------------------------------------------


def cmd_deploy(args: argparse.Namespace, out: TextIO) -> int:
    fence = deploy.FencePolicy.ABORT if args.fence_abort else deploy.FencePolicy.PROCEED
    search = adversary.search_schedules(
        deploy.run_case_naive,
        lambda report: len(report.mixed) > 0,
        budget=args.budget,
        candidates=deploy.deploy_candidates(args.n, args.seed))
    consensus_mixed = 0
    cases = deploy.deploy_candidates(args.n, args.seed)
    for _ in range(args.budget):
        report = deploy.run_case_consensus(next(cases), fence_policy=fence)
        consensus_mixed += len(report.mixed)
    payload = {
        "seed": args.seed, "n": args.n, "budget": args.budget,
        "naive_witness_found": search.found,
        "naive_tries": search.tried,
        "consensus_mixed": consensus_mixed,
    }
    if args.format == "json":
        print(_json_dumps(payload), file=out)
    elif args.format == "csv":
        print("seed,n,budget,naive_witness_found,naive_tries,consensus_mixed", file=out)
        print(f"{args.seed},{args.n},{args.budget},"
              f"{str(search.found).lower()},{search.tried},{consensus_mixed}", file=out)
    else:
        print(f"seed: {args.seed}  n: {args.n}  budget: {args.budget}", file=out)
        print(f"naive deploy: mixed collective witness "
              f"{'found' if search.found else 'NOT found'} "
              f"after {search.tried} schedules", file=out)
        print(f"consensus deploy: {consensus_mixed} mixed collectives "
              f"over {args.budget} schedules", file=out)
    if consensus_mixed > 0:
        return EXIT_DEPLOY_MIXED
    if not search.found:
        return EXIT_NO_WITNESS
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file of flag values; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epochsim",
        description="Deterministic epoch-transition atomicity experiments",
        epilog=_EPILOG)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lattice-table", help="analytic atomicity table",
                        epilog=_EPILOG)
    p.add_argument("--trials", type=int, default=10_000,
                   help="Monte Carlo trials per row; 0 disables the MC columns")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_lattice_table)

    p = subs.add_parser("straddle", help="boundary-straddling crash witnesses",
                        epilog=_EPILOG)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--t-max", type=int, default=1_000_000)
    p.add_argument("--no-crash", action="store_true",
                   help="negative control: same schedules, crash disabled")
    p.add_argument("--narrative", action="store_true",
                   help="print an event narrative for the first witness")
    _add_common(p)
    p.set_defaults(func=cmd_straddle)

    p = subs.add_parser("bilateral-vs-naive",
                        help="protocol battery under crash injection",
                        epilog=_EPILOG)
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--crash-prob", type=float, default=0.15)
    p.add_argument("--t-c", type=int, default=10)
    p.add_argument("--ack-timeout", type=int, default=30)
    _add_common(p)
    p.set_defaults(func=cmd_bilateral_vs_naive)

    p = subs.add_parser("adamw-skew", help="moment skew and divergence",
                        epilog=_EPILOG)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--dim", type=int, default=1,
                   help=f"task dimension, 1 to {ADAMW_MAX_DIM}")
    p.add_argument("--g-skip", type=float, default=1.0)
    p.add_argument("--skew-epoch", type=int, default=3)
    p.add_argument("--horizon", type=int, default=50,
                   help=f"steps in the divergence series, 2 to {ADAMW_MAX_HORIZON}")
    p.add_argument("--noise", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_adamw_skew)

    p = subs.add_parser("retry", help="retry sweep vs geometric baseline",
                        epilog=_EPILOG)
    p.add_argument("--p0", type=float, default=0.1)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--alphas", type=str, default="1.0,1.25,1.5")
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--max-attempts", type=int, default=40)
    _add_common(p)
    p.set_defaults(func=cmd_retry)

    p = subs.add_parser("deploy", help="fleet deploy battery",
                        epilog=_EPILOG)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--fence-abort", action="store_true",
                   help="abort collectives instead of proceeding without fenced nodes")
    _add_common(p)
    p.set_defaults(func=cmd_deploy)

    return parser


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        try:
            flags = _config_flags(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"--config {args.config}: {exc}")
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    if args.command == "straddle" and args.n < 2:
        parser.error("straddle requires --n >= 2")
    func: Callable[[argparse.Namespace, TextIO], int] = args.func
    try:
        return func(args, out)
    except ValueError as exc:
        print(f"epochsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
