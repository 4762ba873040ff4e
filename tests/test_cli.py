"""Command-line interface: exit codes, formats, determinism, config."""

from __future__ import annotations

import io
import json

import pytest

from epochsim import optimizer
from epochsim.cli import (
    EXIT_NO_WITNESS,
    EXIT_OK,
    EXIT_SKEW_MISMATCH,
    EXIT_USAGE,
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


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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


def test_config_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 2, "nonsense": True}))
    with pytest.raises(SystemExit) as exc:
        run_cli("straddle", "--config", str(conf))
    assert exc.value.code == 2


def test_config_string_value_is_parsed_like_a_flag(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": "3"}))
    code, out = run_cli("straddle", "--config", str(conf))
    assert code == EXIT_OK
    assert "3/3 mixed" in out


def test_config_rejects_ill_typed_value(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": "three"}))
    with pytest.raises(SystemExit) as exc:
        run_cli("straddle", "--config", str(conf))
    assert exc.value.code == 2


def test_explicit_flag_at_its_default_beats_config(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 3, "seed": 12}))
    code, out = run_cli("straddle", "--config", str(conf), "--seed", "0")
    assert code == EXIT_OK
    assert "seed: 0" in out


def test_config_booleans_toggle_switches(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": 3, "no_crash": True, "narrative": False}))
    code, out = run_cli("straddle", "--config", str(conf))
    assert code == EXIT_OK
    assert "negative control (no crash): 0/3" in out


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("bilateral-vs-naive", "--n", "0"),
    ("bilateral-vs-naive", "--runs", "0"),
    ("bilateral-vs-naive", "--ack-timeout", "0"),
    ("bilateral-vs-naive", "--crash-prob", "2"),
    ("bilateral-vs-naive", "--crash-prob", "-1"),
    ("lattice-table", "--q", "1.5", "--n", "3"),
    ("lattice-table", "--q", "0.5"),
    ("lattice-table", "--trials", "-1"),
    ("retry", "--alphas", "0.5"),
    ("retry", "--p0", "2"),
    ("retry", "--runs", "0"),
    ("retry", "--n", "0"),
    ("retry", "--alphas", ","),
    ("retry", "--alphas", "nan"),
    ("retry", "--alphas", "inf"),
    ("retry", "--alphas", "1e308"),
    ("retry", "--p0", "1", "--alphas", "8e307", "--max-attempts", "2", "--runs", "3"),
    ("deploy", "--n", "1"),
    ("deploy", "--budget", "0"),
    ("adamw-skew", "--horizon", "1"),
    ("adamw-skew", "--dim", "0"),
    ("adamw-skew", "--lr", "nan"),
    ("adamw-skew", "--noise", "nan"),
    ("adamw-skew", "--noise", "inf"),
    ("adamw-skew", "--g-skip", "nan"),
    ("adamw-skew", "--lr", "1e308", "--format", "json"),
    ("adamw-skew", "--dim", "3", "--noise", "1e308"),
    ("adamw-skew", "--g-skip", "1e200"),
    # One above each size bound; refused before anything that size is built.
    ("adamw-skew", "--dim", "1000001"),
    ("adamw-skew", "--horizon", "10001"),
    ("straddle", "--grid", "0"),
    ("straddle", "--t-max", "0"),
    ("straddle", "--t-max", "1", "--grid", "3"),
    ("straddle", "--t-max", "20", "--grid", "13"),
    # One above the default cap: 999,992 boundaries lie in [8, 10^6). It must
    # be refused before anything that size is built.
    ("straddle", "--grid", "999993"),
], ids="_".join)
@pytest.mark.filterwarnings("error")
def test_invalid_value_is_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("epochsim: error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_adamw_dim_zero_names_the_flag(capsys):
    code, _ = run_cli("adamw-skew", "--dim", "0")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "epochsim: error: --dim must be at least 1\n"


def test_straddle_grid_may_fill_every_boundary_below_t_max():
    # [8, 20) holds exactly 12 boundaries, so --grid 12 is the largest grid
    code, out = run_cli("straddle", "--t-max", "20", "--grid", "12", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["grid"] == 12 and json.loads(out)["mixed"] == 12


def test_straddle_rejects_single_component():
    with pytest.raises(SystemExit) as exc:
        main(["straddle", "--n", "1"])
    assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["bilateral-vs-naive", "--runs", "10", "--workers", "4"])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --workers 4" in err
    assert "Traceback" not in err
