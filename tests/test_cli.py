"""Command-line interface: exit codes, formats, determinism, config."""

from __future__ import annotations

import ast
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import epochsim
from epochsim import cli, optimizer, protocols
from epochsim.cli import (
    EXIT_NO_WITNESS,
    EXIT_OK,
    EXIT_SKEW_MISMATCH,
    EXIT_USAGE,
    RETRY_MAX_ALPHAS,
    STRADDLE_MAX_GRID,
    build_parser,
    main,
)


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def assert_refused(code: int, out: str, err: str) -> None:
    """A refused command line: exit 2, nothing on stdout, one stderr line."""
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("epochsim: error: ")
    assert len(err.splitlines()) == 1


def test_no_command_is_usage_error(capsys):
    assert_refused(*run_cli(), capsys.readouterr().err)


def test_unknown_command_is_usage_error(capsys):
    assert_refused(*run_cli("frobnicate"), capsys.readouterr().err)


@pytest.mark.parametrize("argv", [("--help",), ("deploy", "--help")])
def test_help_is_the_only_system_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: epochsim")


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 3, "seed": 12}))
    argvs = [("straddle", "--n", "1"),
             ("straddle", "--config", str(conf)),
             ("straddle", "--grid", "2"),
             ("retry", "--runs", "20", "--format", "csv"),
             ("--help",)]

    def run(argv):
        buf = io.StringIO()
        try:
            code = main(list(argv), stdout=buf)
        except SystemExit as exc:  # --help prints to sys.stdout and exits
            code = exc.code
        captured = capsys.readouterr()
        return code, buf.getvalue() + captured.out, captured.err

    built = []
    real = cli.build_parser

    def counted():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        shared = [run(argv) for argv in argvs]
        assert len(built) == 1
        assert cli._parser() is built[0]
        # Each argv alone, against a parser built for it.
        for argv, result in zip(argvs, shared):
            cli._parser.cache_clear()
            assert run(argv) == result
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1 + len(argvs)
    assert [code for code, _, _ in shared] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, 0]
    # The --config run's values do not become the next run's defaults.
    assert "seed: 12" in shared[1][1] and "3/3 mixed" in shared[1][1]
    assert "seed: 0" in shared[2][1] and "2/2 mixed" in shared[2][1]
    assert shared[4][1].startswith("usage: epochsim")
    assert real() is not real()


def test_parser_lists_all_subcommands():
    parser = build_parser()
    subs = parser._subparsers._group_actions[0].choices
    assert set(subs) == {"lattice-table", "straddle", "bilateral-vs-naive",
                         "adamw-skew", "retry", "deploy"}


# ---------------------------------------------------------------------------
# per-command happy paths
# ---------------------------------------------------------------------------


def test_lattice_table_text():
    code, out = run_cli("lattice-table", "--trials", "0")
    assert code == EXIT_OK
    assert "seed: 0" in out
    assert "0.368" in out and "0.905" in out


def test_lattice_table_json_all_match():
    code, out = run_cli("lattice-table", "--trials", "0", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["seed"] == 0
    assert len(obj["rows"]) == 5
    assert all(r["matches"] for r in obj["rows"])


def test_lattice_table_single_cell():
    code, out = run_cli("lattice-table", "--trials", "0", "--q", "0.999",
                        "--n", "1000", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert rows[0]["n"] == 1000


def test_lattice_table_with_monte_carlo():
    code, out = run_cli("lattice-table", "--trials", "2000",
                        "--format", "json", "--seed", "5")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["seed"] == 5
    assert all("mc_pr_atomic" in r for r in obj["rows"])


def test_straddle_witnesses():
    code, out = run_cli("straddle", "--grid", "6", "--seed", "2")
    assert code == EXIT_OK
    assert "6/6 mixed" in out


def test_straddle_negative_control():
    code, out = run_cli("straddle", "--grid", "6", "--no-crash")
    assert code == EXIT_OK
    assert "0/6" in out


def test_straddle_json():
    code, out = run_cli("straddle", "--grid", "4", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["mixed"] == 4 and obj["grid"] == 4


def test_bilateral_vs_naive_small_battery():
    code, out = run_cli("bilateral-vs-naive", "--runs", "120", "--n", "3",
                        "--format", "json", "--seed", "3")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["bilateral"]["mixed"] == 0
    assert obj["naive"]["mixed"] > 0
    assert obj["runs"] == 120


def test_adamw_skew_exit_zero():
    code, out = run_cli("adamw-skew", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["closed_form_error"] <= 1e-12
    assert obj["skew_per_unit_gradient"] == pytest.approx(0.09, abs=1e-12)


def test_retry_csv():
    code, out = run_cli("retry", "--runs", "300", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("alpha,")
    assert len(lines) == 4  # header + three alphas


def test_deploy_small_budget():
    code, out = run_cli("deploy", "--budget", "10", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["naive_witness_found"] is True
    assert obj["consensus_mixed"] == 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("lattice-table", "--trials", "500"),
    ("straddle", "--grid", "5"),
    ("bilateral-vs-naive", "--runs", "60", "--n", "2"),
    ("adamw-skew", "--horizon", "20"),
    ("retry", "--runs", "200"),
    ("deploy", "--budget", "5"),
])
def test_outputs_byte_identical_across_reruns(argv):
    a = run_cli(*argv, "--format", "json")
    b = run_cli(*argv, "--format", "json")
    assert a == b


def test_adamw_skew_distance_ignores_blas_threads():
    # A BLAS dot product splits its sum across threads, so its last digits
    # follow the host's thread count; numpy's pairwise sum does not. BLAS
    # reads the thread count when numpy loads, hence one process per setting.
    src = str(Path(epochsim.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "epochsim.cli", "adamw-skew", "--dim", "131072",
            "--noise", "0.1", "--horizon", "6", "--format", "csv"]
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 8


def test_subcommands_without_arrays_do_not_load_numpy():
    # Only adamw-skew and lattice-table's Monte Carlo use numpy, so a fresh
    # process that runs the other subcommands through cli.main never loads it.
    src = str(Path(epochsim.__file__).resolve().parents[1])
    script = """
import io, sys
from epochsim import cli
for argv in (["straddle", "--n", "4", "--grid", "20"],
             ["retry", "--runs", "50"],
             ["bilateral-vs-naive", "--runs", "50"],
             ["deploy", "--budget", "20"]):
    assert cli.main(argv, stdout=io.StringIO()) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"


def test_seed_changes_monte_carlo_output():
    _, a = run_cli("lattice-table", "--trials", "500", "--seed", "1",
                   "--format", "json")
    _, b = run_cli("lattice-table", "--trials", "500", "--seed", "2",
                   "--format", "json")
    assert a != b


def test_seed_echoed_everywhere():
    for argv in (("lattice-table", "--trials", "0"),
                 ("straddle", "--grid", "3"),
                 ("retry", "--runs", "50")):
        _, out = run_cli(*argv, "--seed", "77")
        assert "77" in out


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_supplies_values(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 3, "seed": 12}))
    code, out = run_cli("straddle", "--config", str(conf))
    assert code == EXIT_OK
    assert "3/3 mixed" in out
    assert "seed: 12" in out


def test_explicit_flag_beats_config(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 3, "seed": 12}))
    code, out = run_cli("straddle", "--config", str(conf), "--seed", "99")
    assert code == EXIT_OK
    assert "seed: 99" in out
    assert "3/3 mixed" in out


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 2, "nonsense": True}))
    assert_refused(*run_cli("straddle", "--config", str(conf)), capsys.readouterr().err)


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    code, out = run_cli("straddle", "--config", str(tmp_path / "missing.json"))
    err = capsys.readouterr().err
    assert_refused(code, out, err)
    assert err.startswith(f"epochsim: error: --config {tmp_path / 'missing.json'}: ")


def test_deeply_nested_config_is_usage_error(tmp_path, capsys):
    # json.load gives up on this nesting with RecursionError, not ValueError.
    conf = tmp_path / "deep.json"
    conf.write_text("[" * 100_000)
    code, out = run_cli("retry", "--runs", "1", "--config", str(conf))
    err = capsys.readouterr().err
    assert_refused(code, out, err)
    assert err.startswith(f"epochsim: error: --config {conf}: ")


def test_config_string_value_is_parsed_like_a_flag(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": "3"}))
    code, out = run_cli("straddle", "--config", str(conf))
    assert code == EXIT_OK
    assert "3/3 mixed" in out


def test_config_rejects_ill_typed_value(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": "three"}))
    assert_refused(*run_cli("straddle", "--config", str(conf)), capsys.readouterr().err)


def test_explicit_flag_at_its_default_beats_config(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 3, "seed": 12}))
    code, out = run_cli("straddle", "--config", str(conf), "--seed", "0")
    assert code == EXIT_OK
    assert "seed: 0" in out


def test_config_entry_is_checked_even_when_a_flag_overrides_it(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 1}))
    code, out = run_cli("straddle", "--config", str(conf), "--n", "5")
    err = capsys.readouterr().err
    assert_refused(code, out, err)
    assert "--n" in err


def test_config_booleans_toggle_switches(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 3, "no_crash": True, "narrative": False}))
    code, out = run_cli("straddle", "--config", str(conf))
    assert code == EXIT_OK
    assert "negative control (no crash): 0/3" in out


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------


# Argv from earlier reports, each refused with one line. The generated
# cases further down run many of the same flags and values again; these
# also cover library checks, flag combinations and values they do not try.
@pytest.mark.parametrize("argv", [
    ("bilateral-vs-naive", "--n", "0"),
    ("bilateral-vs-naive", "--runs", "0"),
    ("bilateral-vs-naive", "--ack-timeout", "0"),
    ("bilateral-vs-naive", "--crash-prob", "2"),
    ("bilateral-vs-naive", "--crash-prob", "-1"),
    ("lattice-table", "--q", "1.5", "--n", "3"),
    ("lattice-table", "--q", "0.5"),
    ("lattice-table", "--trials", "-1"),
    # numpy's binomial sampler cannot take this --n as a C long.
    ("lattice-table", "--q", "0.5", "--n", "1000000000000000000000000000000", "--trials", "1"),
    # One above each size bound; refused before any sampling.
    ("lattice-table", "--q", "0.5", "--n", "1000000001", "--trials", "1"),
    ("lattice-table", "--q", "0.5", "--n", "2", "--trials", "10000001"),
    ("retry", "--alphas", "0.5"),
    ("retry", "--p0", "2"),
    ("retry", "--runs", "0"),
    ("retry", "--n", "0"),
    ("retry", "--alphas", ","),
    ("retry", "--alphas", "nan"),
    ("retry", "--alphas", "inf"),
    ("retry", "--alphas", "1e308"),
    ("retry", "--p0", "1", "--alphas", "8e307", "--max-attempts", "2", "--runs", "3"),
    # One above the attempt bound; refused before the schedule is built.
    ("retry", "--max-attempts", "10001", "--alphas", "1", "--runs", "1"),
    ("deploy", "--n", "0"),
    ("deploy", "--n", "1"),
    # One above the fleet bound; refused before any node is built.
    ("deploy", "--n", "100001", "--budget", "1"),
    ("bilateral-vs-naive", "--n", "100001", "--runs", "1"),
    ("straddle", "--n", "100001", "--grid", "1"),
    # One above the --runs and --budget bounds; refused before any run.
    ("bilateral-vs-naive", "--runs", "10000001"),
    ("retry", "--runs", "10000001"),
    ("deploy", "--budget", "10000001"),
    ("deploy", "--budget", "0"),
    ("adamw-skew", "--horizon", "1"),
    # Inside --horizon's range, but not above the default --skew-epoch 3.
    ("adamw-skew", "--horizon", "3"),
    ("adamw-skew", "--skew-epoch", "0"),
    ("adamw-skew", "--dim", "0"),
    ("adamw-skew", "--lr", "nan"),
    ("adamw-skew", "--noise", "nan"),
    ("adamw-skew", "--noise", "inf"),
    ("adamw-skew", "--g-skip", "nan"),
    ("adamw-skew", "--lr", "1e308", "--format", "json"),
    ("adamw-skew", "--dim", "3", "--noise", "1e308"),
    # With the threshold lowered to 16,384, large enough that the noise is
    # drawn ahead on a helper thread.
    ("adamw-skew", "--dim", "100000", "--noise", "1e300"),
    ("adamw-skew", "--dim", "100000", "--noise", "0.1", "--lr", "1e308"),
    ("adamw-skew", "--g-skip", "1e200"),
    # numpy seeds the noise and refuses a negative seed; the task refuses it
    # first, with or without noise.
    ("adamw-skew", "--seed", "-1", "--noise", "0.1"),
    ("adamw-skew", "--seed", "-1", "--noise", "0"),
    # One above each size bound; refused before anything that size is built.
    ("adamw-skew", "--dim", "1000001"),
    ("adamw-skew", "--horizon", "10001"),
    ("straddle", "--n", "0"),
    ("straddle", "--n", "1"),
    ("straddle", "--grid", "0"),
    ("straddle", "--t-max", "0"),
    ("straddle", "--t-max", "1", "--grid", "3"),
    ("straddle", "--t-max", "20", "--grid", "13"),
    # One above the default cap: 999,992 boundaries lie in [8, 10^6). It must
    # be refused before anything that size is built.
    ("straddle", "--grid", "999993"),
    # One above the --grid bound, refused while parsing however large --t-max is.
    ("straddle", "--t-max", "1000000000000", "--grid", str(STRADDLE_MAX_GRID + 1)),
    # A --t-max whose boundary range random.sample cannot index.
    ("straddle", "--grid", "2", "--t-max", "99999999999999999999999"),
    # 2**64: derive_seed would keep its low 64 bits and run seed 0's battery.
    ("bilateral-vs-naive", "--seed", "18446744073709551616"),
    # One entry above the --alphas bound; refused before any run.
    ("retry", "--runs", "1", "--alphas", ",".join(["1"] * (RETRY_MAX_ALPHAS + 1))),
], ids="_".join)
@pytest.mark.filterwarnings("error")
def test_invalid_value_is_usage_error(draw_ahead_from_16384, argv, capsys):
    threads = threading.active_count()
    assert_refused(*run_cli(*argv), capsys.readouterr().err)
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# generated invalid inputs: every int and float flag of every subcommand
# ---------------------------------------------------------------------------


# Small sizes ride along with every case, so each finishes fast.
_SMALL = {"--runs": "5", "--budget": "5", "--trials": "10", "--grid": "3",
          "--horizon": "5"}
# lattice-table evaluates a single cell only when --q and --n come together.
_PARTNER = {"--q": ("--n", "3"), "--n": ("--q", "0.5")}
_FLOATS = ("nan", "inf", "-inf", "-1", "0", "1e308")
_NON_FINITE = ("nan", "inf", "-inf")
# Every int flag is also tried at 2**64, unless that is one past its bound.
_HUGE = 2**64


def _readme_exit_codes() -> set[int]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    return {int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)}


_EXIT_CODES = _readme_exit_codes()


def _generated_cases() -> list[tuple[tuple[str, ...], bool]]:
    """(argv, refused) for each int flag at 0, -1, one past its declared
    bound and 2**64, and each float flag at every value of _FLOATS. refused
    says the value lies outside the flag's declared range or is not finite."""
    cases = []
    subs = build_parser()._subparsers._group_actions[0].choices
    for sub, parser in subs.items():
        for action in parser._actions:
            # A bounded int flag's type names itself "int" and carries lo and hi.
            kind = getattr(action.type, "__name__", None)
            if kind == "int":
                lo, hi = getattr(action.type, "lo", None), getattr(action.type, "hi", None)
                values = [(v, lo is not None and int(v) < lo) for v in ("0", "-1")]
                values += [(str(hi + 1), True)] if hi is not None else []
                if hi != _HUGE - 1:
                    values.append((str(_HUGE), hi is not None))
            elif kind == "float":
                values = [(v, v in _NON_FINITE) for v in _FLOATS]
            else:
                continue
            flag = action.option_strings[-1]
            ride = [x for k, v in _SMALL.items() if k != flag
                    and k in parser._option_string_actions for x in (k, v)]
            if sub == "lattice-table" and flag in _PARTNER:
                ride += _PARTNER[flag]
            cases += [((sub, *ride, flag, value), refused) for value, refused in values]
    return cases


_GENERATED = _generated_cases()


@pytest.mark.parametrize("argv,refused", _GENERATED, ids=[" ".join(a) for a, _ in _GENERATED])
def test_generated_input_exits_cleanly(argv, refused, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code in _EXIT_CODES
    assert "Traceback" not in err
    if refused or code == EXIT_USAGE:
        assert_refused(code, out, err)
    assert not re.search(r"\b(nan|inf|infinity)\b", out, re.I)


def test_generated_cases_reach_every_subcommand():
    # A flag type the walk fails to recognise would drop its cases silently.
    subs = build_parser()._subparsers._group_actions[0].choices
    walked = {(argv[0], argv[-2]) for argv, _ in _GENERATED}
    assert {(sub, "--seed") for sub in subs} <= walked
    # A bare int flag declares no range, so the walk could not say which
    # values it must refuse.
    bare = [(sub, action.option_strings[-1]) for sub, parser in subs.items()
            for action in parser._actions if action.type is int]
    assert bare == []
    assert {("retry", "--p0"), ("deploy", "--budget")} <= walked


def test_main_is_the_only_exit():
    # A refused command line returns 2 from main; only the script entry
    # point turns that into a process exit.
    found = []
    for path in sorted(Path(epochsim.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "cli.py":
            allowed = {id(node) for stmt in tree.body if isinstance(stmt, ast.If)
                       and ast.unparse(stmt.test) == "__name__ == '__main__'"
                       for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "error" or ast.unparse(node.func) == "sys.exit":
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "SystemExit":
                    found.append(f"{path.name}:{node.lineno} raise SystemExit")
    assert found == []


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


def test_retry_infinite_baseline_is_null_in_json():
    # At --p0 1 every attempt fails, so the geometric baseline is infinite.
    argv = ("retry", "--p0", "1", "--runs", "2", "--alphas", "1", "--max-attempts", "3")
    code, out = run_cli(*argv, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out, parse_constant=_reject_constant)["geometric_baseline"] is None
    assert run_cli(*argv, "--format", "csv")[1].splitlines()[1].endswith(",")
    assert "geometric baseline: inf" in run_cli(*argv)[1]


def test_adamw_dim_zero_names_the_flag(capsys):
    code, _ = run_cli("adamw-skew", "--dim", "0")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "epochsim: error: --dim must be at least 1\n"


@pytest.mark.parametrize("horizon", ["2", "3"])
def test_adamw_skew_epoch_at_horizon_names_both_flags(horizon, capsys):
    code, out = run_cli("adamw-skew", "--horizon", horizon)
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == (
        f"epochsim: error: --skew-epoch 3 must be less than --horizon {horizon}\n")


def test_straddle_grid_may_fill_every_boundary_below_t_max():
    # [8, 20) holds exactly 12 boundaries, so --grid 12 is the largest grid
    code, out = run_cli("straddle", "--t-max", "20", "--grid", "12", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["grid"] == 12 and json.loads(out)["mixed"] == 12


@pytest.mark.parametrize("flag", ["--t-c", "--ack-timeout"])
def test_bilateral_nonpositive_time_names_the_flag(flag, capsys):
    code, out = run_cli("bilateral-vs-naive", "--runs", "5", flag, "0")
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"epochsim: error: {flag} must be at least 1\n"


def _no_run(*args, **kwargs):
    raise AssertionError("ran a sweep")


def test_retry_alphas_past_the_bound_names_the_flag(monkeypatch, capsys):
    alphas = ",".join(["1"] * RETRY_MAX_ALPHAS)
    code, out = run_cli("retry", "--alphas", alphas, "--runs", "1", "--format", "csv")
    assert code == EXIT_OK and len(out.splitlines()) == 1 + RETRY_MAX_ALPHAS
    monkeypatch.setattr(protocols, "retry_sweep", _no_run)
    code, out = run_cli("retry", "--alphas", alphas + ",1.5", "--runs", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == (
        f"epochsim: error: --alphas takes at most {RETRY_MAX_ALPHAS} entries, "
        f"got {RETRY_MAX_ALPHAS + 1}\n")


def test_retry_refuses_a_late_invalid_alpha_before_any_run(monkeypatch, capsys):
    monkeypatch.setattr(protocols, "run_retry_loop", _no_run)
    code, out = run_cli("retry", "--alphas", "1,1,1,0.5", "--runs", "100000")
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == (
        "epochsim: error: amplification must be a finite number >= 1\n")


def test_straddle_rejects_single_component(capsys):
    code, out = run_cli("straddle", "--n", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "epochsim: error: --n must be at least 2\n"


@pytest.mark.parametrize("n", ["0", "1"])
def test_deploy_small_n_names_the_flag(n, capsys):
    code, _ = run_cli("deploy", "--n", n, "--budget", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "epochsim: error: --n must be at least 2\n"


def test_no_crash_straddle_uses_witness_exit_code():
    # force a contradiction: no-crash control claiming witnesses must fail
    code, _ = run_cli("straddle", "--grid", "3", "--no-crash")
    assert code in (EXIT_OK, EXIT_NO_WITNESS)
    assert code == EXIT_OK  # control is clean in this build


def test_bilateral_zero_crash_prob_all_top():
    code, out = run_cli("bilateral-vs-naive", "--runs", "80", "--n", "3",
                        "--crash-prob", "0", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    for proto in ("naive", "bilateral"):
        assert obj[proto]["top"] == 80
        assert obj[proto]["mixed"] == 0
        assert obj[proto]["disagreements"] == 0


def test_adamw_skew_beta1_zero_is_skewless():
    # with no momentum there is nothing to lag: predicted and measured
    # skew are both zero and the check passes trivially
    code, out = run_cli("adamw-skew", "--beta1", "0", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["skew_per_unit_gradient"] == 0.0
    assert obj["closed_form_error"] <= 1e-12


@pytest.mark.parametrize("g_skip", ["1e6", "1e100"])
def test_adamw_skew_large_gradient_holds_to_rounding(g_skip):
    # The closed form holds to rounding, and rounding grows with |g_skip|:
    # an absolute 1e-12 tolerance reported a mismatch here.
    code, out = run_cli("adamw-skew", "--g-skip", g_skip, "--dim", "4",
                        "--horizon", "5", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["skew_per_unit_gradient"] == pytest.approx(0.09, rel=1e-12)


@pytest.mark.parametrize("g_skip", ["1", "1e6"])
def test_adamw_skew_relative_mismatch_exits_6(monkeypatch, g_skip):
    true_skew = optimizer.moment_skew
    monkeypatch.setattr(optimizer, "moment_skew",
                        lambda g, beta1: true_skew(g, beta1) * (1 + 1e-9))
    code, _ = run_cli("adamw-skew", "--g-skip", g_skip, "--dim", "4",
                      "--horizon", "5")
    assert code == EXIT_SKEW_MISMATCH


def test_workers_flag_is_usage_error(capsys):
    # The battery has no worker pool, so it takes no --workers flag.
    code, out = run_cli("bilateral-vs-naive", "--runs", "10", "--workers", "4")
    err = capsys.readouterr().err
    assert_refused(code, out, err)
    assert "unrecognized arguments: --workers 4" in err
