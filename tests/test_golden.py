"""Golden stdout: the README example commands in every output format.

One case outside the README, adamw-skew-noisy, runs the divergence series
at dim 64 with batch noise, so that every element of the task arrays and
the noise stream reaches the output. The FLAGS cases cover options the
README examples leave at their defaults: the straddle negative control,
a single lattice cell, the aborting fence policy, a wider cluster at a
non-default seed, and a retry sweep that reaches the failure-probability
cap (at alpha 4) and exhausts its attempt budget.

Each case runs one CLI invocation in process and compares its stdout byte
for byte with a file under tests/golden/. A mismatch fails with a unified
diff. Each `$ epochsim` block in README.md must equal its EXAMPLES case's
text file. After a change that is meant to alter output, regenerate the files
from the repository root with

    PYTHONPATH=src:tests python -c "import test_golden as g; [(g.GOLDEN / f).write_text(g.render(a)) for f, a in g.CASES]"

and explain the change in CHANGES.md.
"""

from __future__ import annotations

import difflib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import epochsim
from epochsim.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden")
README = Path(__file__).parent.parent / "README.md"

EXAMPLES = {
    "lattice-table": ["lattice-table"],
    "straddle": ["straddle", "--grid", "4"],
    "bilateral-vs-naive": ["bilateral-vs-naive", "--runs", "300"],
    "adamw-skew": ["adamw-skew"],
    "adamw-skew-noisy": ["adamw-skew", "--dim", "64", "--noise", "0.1", "--horizon", "12",
                         "--skew-epoch", "3", "--seed", "5"],
    "retry": ["retry", "--runs", "400"],
    "deploy": ["deploy", "--budget", "300"],
}

FLAGS = {
    "straddle-no-crash": ["straddle", "--grid", "4", "--no-crash"],
    "lattice-table-cell": ["lattice-table", "--q", "0.99", "--n", "64"],
    "deploy-fence-abort": ["deploy", "--budget", "300", "--fence-abort"],
    "bilateral-vs-naive-n8": ["bilateral-vs-naive", "--n", "8", "--runs", "200",
                              "--seed", "7"],
    "retry-cap": ["retry", "--runs", "300", "--p0", "0.3", "--alphas", "1,2,4",
                  "--max-attempts", "6"],
}

CASES = [(f"{name}.{fmt}", argv + ["--format", fmt])
         for name, argv in {**EXAMPLES, **FLAGS}.items()
         for fmt in ("text", "csv", "json")]
# The narrative is printed in text format only.
CASES.append(("straddle-narrative.text", ["straddle", "--grid", "4", "--narrative"]))


def render(argv: list[str]) -> str:
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    assert code == EXIT_OK, (argv, code)
    return buf.getvalue()


@pytest.mark.parametrize("filename,argv", CASES, ids=[f for f, _ in CASES])
def test_stdout_matches_golden(filename, argv):
    want = (GOLDEN / filename).read_text()
    got = render(argv)
    if got != want:
        diff = difflib.unified_diff(want.splitlines(keepends=True),
                                    got.splitlines(keepends=True),
                                    fromfile=f"golden/{filename}", tofile="stdout")
        pytest.fail("".join(diff), pytrace=False)


# (PYTHONHASHSEED, OPENBLAS_NUM_THREADS) of each fresh interpreter.
ENVIRONMENTS = [("0", "1"), ("1", "2"), ("4242", "2")]


def test_golden_cases_match_in_fresh_interpreters():
    # The determinism contract: a case's output depends on its argv alone,
    # not on string hashing or BLAS threads. BLAS reads its thread count
    # when numpy loads, hence one interpreter per environment; they run
    # side by side, each rendering every case.
    path = os.pathsep.join(filter(None, [str(Path(epochsim.__file__).resolve().parents[1]),
                                         str(Path(__file__).parent),
                                         os.environ.get("PYTHONPATH")]))
    script = ("import json, test_golden as g; "
              "print(json.dumps({f: g.render(argv) for f, argv in g.CASES}))")
    procs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed,
                                   "OPENBLAS_NUM_THREADS": threads})
             for seed, threads in ENVIRONMENTS]
    try:
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for env, proc, out in zip(ENVIRONMENTS, procs, outs):
        assert proc.returncode == 0, env
        got = json.loads(out)
        assert list(got) == [f for f, _ in CASES], env
        for filename, text in got.items():
            assert text == (GOLDEN / filename).read_text(), (env, filename)


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


JSON_CASES = [(f, argv) for f, argv in CASES if f.endswith(".json")]


@pytest.mark.parametrize("filename,argv", JSON_CASES, ids=[f for f, _ in JSON_CASES])
def test_json_output_is_strict_json(filename, argv):
    json.loads(render(argv), parse_constant=_reject_constant)


def test_readme_examples_match_golden():
    # Each `$ epochsim` block in the README shows one EXAMPLES case's text
    # output; the golden file pins it, so the README must show the same bytes.
    blocks = re.findall(r"^```text\n\$ epochsim ([^\n]*)\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    names = {tuple(argv): name for name, argv in EXAMPLES.items()}
    shown = {names[tuple(shlex.split(args))]: body for args, body in blocks}
    assert len(shown) == len(blocks) == 6
    for name, body in shown.items():
        assert body == (GOLDEN / f"{name}.text").read_text(), name
