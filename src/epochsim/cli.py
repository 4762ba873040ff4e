"""Command-line front end: reproduce every headline result from one binary.

Subcommands:

  lattice-table       analytic atomicity table, optional Monte Carlo columns
  straddle            boundary-straddling crash witnesses and controls
  bilateral-vs-naive  side-by-side protocol battery under crash injection
  adamw-skew          moment-skew check and trajectory divergence series
  retry               retry loop sweep vs the geometric baseline
  deploy              naive vs consensus fleet deployment battery

Every subcommand takes --seed, 0 to 2**64 - 1; text and JSON carry it, CSV
only for straddle and deploy. An identical configuration reruns to
byte-identical output. --config names a JSON object whose keys are flag
names; each entry is parsed as if given on the command line before the
user's own flags, so flags win. Every entry is still parsed, so an
ill-typed or out-of-range entry is refused even when an explicit flag
overrides it.

Exit codes: 0 all embedded checks passed; 2 usage error, always one
`epochsim: error:` line on stderr and nothing on stdout; 3 lattice table
mismatch; 4 expected witness not found; 5 bilateral run ended mixed;
6 moment-skew closed form violated; 7 consensus deploy produced a mixed
collective.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Any, Sequence, TextIO

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


class _Refusal(Exception):
    """A refused command line, which `main` prints as one line with exit 2.
    Not a ValueError, which argparse rewords when a flag's type raises it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _Refusal(message)


@dataclasses.dataclass(frozen=True)
class _IntIn:
    """argparse type of an int flag that must lie in [lo, hi]."""
    flag: str
    lo: int | None = None
    hi: int | None = None
    __name__ = "int"  # argparse names the type in "invalid int value"

    def __call__(self, text: str) -> int:
        value = int(text)
        if self.lo is not None and value < self.lo:
            raise _Refusal(f"{self.flag} must be at least {self.lo}")
        if self.hi is not None and value > self.hi:
            raise _Refusal(f"{self.flag} must be at most {self.hi}")
        return value


def _cell(value: Any, spec: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return format(value, spec)


def _emit(args: argparse.Namespace, out: TextIO, text: Sequence[str],
          summary: dict[str, Any], columns: Sequence[tuple[str, str]],
          rows: Sequence[dict[str, Any]] | None = None, key: str | None = None) -> None:
    """Write a subcommand's result in its --format: the one reader of it.

    Text is the `text` lines. JSON is `summary`, plus `rows` under `key`
    when a key is given. CSV is a header of the column names, then one line
    per row, a row's fields read over the summary's; without rows the
    summary is the one line. Each cell is format(value, spec), except that
    None gives an empty cell and a bool gives true/false.
    """
    fmt = args.format
    if fmt == "text":
        print("\n".join(text), file=out)
        return
    if fmt == "json":
        obj = {**summary, key: rows} if key else summary
        print(json.dumps(obj, sort_keys=True, separators=(", ", ": "),
                         allow_nan=False), file=out)
        return
    lines = [",".join(name for name, _ in columns)]
    for row in rows if rows is not None else [{}]:
        fields = {**summary, **row}
        lines.append(",".join(_cell(fields[name], spec) for name, spec in columns))
    print("\n".join(lines), file=out)


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


# Size bounds, checked while parsing. A Monte Carlo row holds --trials
# int64 counts (a run at the largest --trials peaks near 120 MB RSS), and
# numpy's binomial sampler takes --n as a C long, which is 32 bits on some
# platforms.
LATTICE_MAX_TRIALS = 10_000_000
LATTICE_MAX_N = 1_000_000_000


def cmd_lattice_table(args: argparse.Namespace, out: TextIO) -> int:
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
    table = [{**dataclasses.asdict(row), "matches": row.matches_reference} for row in rows]
    columns = [("q", "g"), ("n", "d"), ("pr_atomic", ".12g"),
               ("reference_3dp", ".3f"), ("matches", "")]
    if mc:
        for entry, res in zip(table, mc):
            entry.update(mc_pr_atomic=res.pr_atomic, mc_stderr_atomic=res.stderr_atomic)
        columns += [("mc_pr_atomic", ".12g"), ("mc_stderr_atomic", ".6g")]
    _emit(args, out, [f"seed: {args.seed}", lattice.render_table_text(rows, mc)],
          {"seed": args.seed}, columns, table, key="rows")
    if check and not all(r.matches_reference for r in rows):
        return EXIT_TABLE_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# straddle
# ---------------------------------------------------------------------------


# --n bound of straddle, bilateral-vs-naive, deploy and retry. The first
# three build one component per --n, and one run at the bound takes seconds;
# retry draws at most one uniform per component per attempt.
FLEET_MAX_N = 100_000

# --grid bound of straddle, checked while parsing whatever --t-max is; it
# admits the 999,992 boundaries below the default --t-max. Sampling a grid
# at the bound takes about 1.5 s and peaks near 150 MB RSS (t_max 10^12, on
# a 2-core Xeon), and the run then tries one witness per boundary, about
# 45 s at --n 2.
STRADDLE_MAX_GRID = 1_000_000
# --t-max bound of straddle, below the 2**63 + 7 at which the boundary range
# [8, t_max) no longer fits the index random.sample takes.
STRADDLE_MAX_T = 10**18


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
    text = [f"seed: {args.seed}", f"{label}: {witnesses}/{len(grid)} mixed (n={args.n})"]
    if first is not None and args.narrative:
        text.append(first.narrative())
    _emit(args, out, text, payload, [(name, "") for name in payload])
    if args.no_crash:
        return EXIT_OK if witnesses == 0 else EXIT_NO_WITNESS
    return EXIT_OK if witnesses == len(grid) else EXIT_NO_WITNESS


# ---------------------------------------------------------------------------
# bilateral-vs-naive
# ---------------------------------------------------------------------------


# --runs bound of bilateral-vs-naive and retry, checked while parsing.
# Memory does not grow with --runs. At the default sizes 10^5 runs took
# 4.3 s (retry) and 7.7-8.1 s (bilateral-vs-naive) on a 2-core x86-64 host
# with Python 3.11, so a run at the bound takes about 7 and 14 minutes.
BATTERY_MAX_RUNS = 10_000_000


def cmd_bilateral_vs_naive(args: argparse.Namespace, out: TextIO) -> int:
    report = protocols.compare_protocols(
        n=args.n, runs=args.runs, seed=args.seed, crash_prob=args.crash_prob,
        boundary_time=args.t_c, ack_timeout=args.ack_timeout)
    obj = report.to_json_obj()
    tallies = [{"protocol": proto, **obj[proto]} for proto in ("naive", "bilateral")]
    text = [f"seed: {args.seed}  runs: {args.runs}  n: {args.n}"]
    text += [f"{t['protocol']:>10}: top={t['top']} bottom_all={t['bottom_all']} "
             f"mixed={t['mixed']} no_decision={t['no_decision']} "
             f"disagreements={t['disagreements']}" for t in tallies]
    text.append(f"naive disagreement rate: {report.naive_disagreement_rate:.4f}")
    _emit(args, out, text, obj, [(name, "") for name in tallies[0]], tallies)
    return EXIT_OK if report.bilateral.mixed == 0 else EXIT_BILATERAL_MIXED


# ---------------------------------------------------------------------------
# adamw-skew
# ---------------------------------------------------------------------------


# Size bounds, checked while parsing. A run holds about twenty float64
# arrays of --dim entries at its peak (at the largest --dim its peak RSS
# is about 180 MB, 190 MB with --noise 0.1) and one row per step up to
# --horizon.
ADAMW_MAX_DIM = 1_000_000
ADAMW_MAX_HORIZON = 10_000


def cmd_adamw_skew(args: argparse.Namespace, out: TextIO) -> int:
    if args.skew_epoch >= args.horizon:
        raise ValueError(f"--skew-epoch {args.skew_epoch} must be less than "
                         f"--horizon {args.horizon}")
    if not math.isfinite(args.g_skip):
        raise ValueError("--g-skip must be finite")
    hyper = optimizer.AdamWHyperparams(lr=args.lr, beta1=args.beta1, beta2=args.beta2)
    g_skip = np.full(args.dim, args.g_skip)
    # Values too large for float64 (say --lr 1e308 or --g-skip 1e200) are a
    # usage error, caught where the arithmetic first overflows.
    try:
        with np.errstate(over="raise", invalid="raise"):
            pair = optimizer.make_skew_pair(g_skip, hyper, epoch=args.skew_epoch)
            observed = optimizer.skew_consistency_check(pair, g_skip, hyper)
            expected = optimizer.moment_skew(g_skip, args.beta1)
            err = float(np.max(np.abs(observed - expected)))
            task = optimizer.QuadraticTask.of(
                np.full(args.dim, 2.0), np.zeros(args.dim), noise_scale=args.noise,
                seed=args.seed)
            series = optimizer.trajectory_divergence(
                task, hyper, skew_epoch=args.skew_epoch, horizon=args.horizon,
                w0=np.ones(args.dim))
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
    text = [f"seed: {args.seed}",
            f"one-step moment shift per unit gradient at beta1={args.beta1}: "
            f"{summary['skew_per_unit_gradient']:.6f} (closed-form error {err:.3e})",
            f"weight distance at horizon {args.horizon}: {summary['final_distance']:.6e}"]
    _emit(args, out, text, summary,
          [("step", "d"), ("distance", ".17g"), ("ref_loss", ".17g"), ("mixed_loss", ".17g")],
          [dataclasses.asdict(r) for r in series.rows], key="series")
    # Rounding error grows with |g_skip|, so the tolerance is relative above 1.
    return EXIT_OK if err <= 1e-12 * max(1.0, abs(args.g_skip)) else EXIT_SKEW_MISMATCH


# ---------------------------------------------------------------------------
# retry
# ---------------------------------------------------------------------------


# Entry bound of retry --alphas, checked before any run: a sweep runs
# --runs runs per entry.
RETRY_MAX_ALPHAS = 100


def cmd_retry(args: argparse.Namespace, out: TextIO) -> int:
    entries = [a for a in args.alphas.split(",") if a]
    if len(entries) > RETRY_MAX_ALPHAS:
        raise ValueError(f"--alphas takes at most {RETRY_MAX_ALPHAS} entries, "
                         f"got {len(entries)}")
    alphas = [float(a) for a in entries]
    summaries = protocols.retry_sweep(
        p0=args.p0, n=args.n, alphas=alphas, runs=args.runs, seed=args.seed,
        max_attempts=args.max_attempts)
    baseline = protocols.geometric_baseline(args.p0, args.n)
    # An infinite baseline (say --p0 1) has no JSON number: null, empty in CSV.
    summary = {"seed": args.seed, "p0": args.p0, "n": args.n,
               "geometric_baseline": baseline if math.isfinite(baseline) else None}
    sweep = [{"alpha": s.alpha, "mean_attempts": s.mean_attempts,
              "success_rate": s.success_rate, "mean_load": s.mean_load}
             for s in summaries]
    text = [f"seed: {args.seed}  p0: {args.p0}  n: {args.n}  "
            f"geometric baseline: {baseline:.4f}"]
    text += [f"alpha={s.alpha:<6g} mean_attempts={s.mean_attempts:<9.4f} "
             f"success_rate={s.success_rate:<8.4f} mean_load={s.mean_load:.4f}"
             for s in summaries]
    _emit(args, out, text, summary,
          [("alpha", "g"), ("mean_attempts", ".6f"), ("success_rate", ".6f"),
           ("mean_load", ".6f"), ("geometric_baseline", ".6f")],
          sweep, key="sweep")
    return EXIT_OK


# ---------------------------------------------------------------------------
# deploy
# ---------------------------------------------------------------------------


# --budget bound of deploy, checked while parsing. Memory does not grow
# with --budget; at the default --n a run at the bound takes about twenty
# minutes.
DEPLOY_MAX_BUDGET = 10_000_000


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
    _emit(args, out, [f"seed: {args.seed}  n: {args.n}  budget: {args.budget}",
                      f"naive deploy: mixed collective witness "
                      f"{'found' if search.found else 'NOT found'} "
                      f"after {search.tried} schedules",
                      f"consensus deploy: {consensus_mixed} mixed collectives "
                      f"over {args.budget} schedules"],
          payload, [(name, "") for name in payload])
    if consensus_mixed > 0:
        return EXIT_DEPLOY_MIXED
    if not search.found:
        return EXIT_NO_WITNESS
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# --seed range: derive_seed keeps only a seed's low 64 bits and Random seeds
# from its absolute value, so a seed outside would share another's streams.
SEED_MAX = 2**64 - 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_IntIn("--seed", 0, SEED_MAX), default=0)
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file of flag values; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epochsim",
        description="Deterministic epoch-transition atomicity experiments",
        epilog=_EPILOG)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lattice-table", help="analytic atomicity table",
                        epilog=_EPILOG)
    p.add_argument("--trials", type=_IntIn("--trials", 0, LATTICE_MAX_TRIALS), default=10_000,
                   help="Monte Carlo trials per row; 0 disables the MC columns")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--n", type=_IntIn("--n", hi=LATTICE_MAX_N), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_lattice_table)

    p = subs.add_parser("straddle", help="boundary-straddling crash witnesses",
                        epilog=_EPILOG)
    p.add_argument("--n", type=_IntIn("--n", 2, FLEET_MAX_N), default=2)
    p.add_argument("--grid", type=_IntIn("--grid", 1, STRADDLE_MAX_GRID), default=100)
    p.add_argument("--t-max", type=_IntIn("--t-max", hi=STRADDLE_MAX_T), default=1_000_000)
    p.add_argument("--no-crash", action="store_true",
                   help="negative control: same schedules, crash disabled")
    p.add_argument("--narrative", action="store_true",
                   help="print an event narrative for the first witness")
    _add_common(p)
    p.set_defaults(func=cmd_straddle)

    p = subs.add_parser("bilateral-vs-naive",
                        help="protocol battery under crash injection",
                        epilog=_EPILOG)
    p.add_argument("--runs", type=_IntIn("--runs", hi=BATTERY_MAX_RUNS), default=10_000)
    p.add_argument("--n", type=_IntIn("--n", hi=FLEET_MAX_N), default=4)
    p.add_argument("--crash-prob", type=float, default=protocols.BATTERY_CRASH_PROB)
    p.add_argument("--t-c", type=_IntIn("--t-c", 1), default=10)
    p.add_argument("--ack-timeout", type=_IntIn("--ack-timeout", 1), default=30)
    _add_common(p)
    p.set_defaults(func=cmd_bilateral_vs_naive)

    p = subs.add_parser("adamw-skew", help="moment skew and divergence",
                        epilog=_EPILOG)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--dim", type=_IntIn("--dim", 1, ADAMW_MAX_DIM), default=1,
                   help=f"task dimension, 1 to {ADAMW_MAX_DIM}")
    p.add_argument("--g-skip", type=float, default=1.0)
    p.add_argument("--skew-epoch", type=_IntIn("--skew-epoch", 1, ADAMW_MAX_HORIZON - 1),
                   default=3)
    p.add_argument("--horizon", type=_IntIn("--horizon", 2, ADAMW_MAX_HORIZON), default=50,
                   help=f"steps in the divergence series, 2 to {ADAMW_MAX_HORIZON}")
    p.add_argument("--noise", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_adamw_skew)

    p = subs.add_parser("retry", help="retry sweep vs geometric baseline",
                        epilog=_EPILOG)
    p.add_argument("--p0", type=float, default=0.1)
    p.add_argument("--n", type=_IntIn("--n", 1, FLEET_MAX_N), default=10)
    p.add_argument("--alphas", type=str, default="1.0,1.25,1.5",
                   help=f"comma-separated load amplifications, at most {RETRY_MAX_ALPHAS}")
    p.add_argument("--runs", type=_IntIn("--runs", hi=BATTERY_MAX_RUNS), default=10_000)
    p.add_argument("--max-attempts",
                   type=_IntIn("--max-attempts", 1, protocols.RETRY_MAX_ATTEMPTS), default=40,
                   help=f"attempts per run, 1 to {protocols.RETRY_MAX_ATTEMPTS}")
    _add_common(p)
    p.set_defaults(func=cmd_retry)

    p = subs.add_parser("deploy", help="fleet deploy battery",
                        epilog=_EPILOG)
    p.add_argument("--n", type=_IntIn("--n", 2, FLEET_MAX_N), default=2)
    p.add_argument("--budget", type=_IntIn("--budget", hi=DEPLOY_MAX_BUDGET), default=10_000)
    p.add_argument("--fence-abort", action="store_true",
                   help="abort collectives instead of proceeding without fenced nodes")
    _add_common(p)
    p.set_defaults(func=cmd_deploy)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process. Sharing it is safe:
    parse_args keeps no state between calls and no flag has a mutable
    default. set_defaults binds each cmd_* function when the parser is
    built, so code that replaces one must call _parser.cache_clear()."""
    return build_parser()


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                flags = _config_flags(args.config)
            except (OSError, ValueError, RecursionError) as exc:
                raise _Refusal(f"--config {args.config}: {exc}") from None
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        return args.func(args, out)
    except (_Refusal, ValueError) as exc:
        print(f"epochsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
