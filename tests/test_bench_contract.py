"""The benchmark harness under bench/ still finds what it calls.

bench/ is not part of the package, and a change to the package leaves it
as it is, so an API change in epochsim (a removed function, method or
keyword argument) would first show as a failed benchmark run. These
checks catch it in the test suite instead: every entry point the tracer
wraps still exists, and op 0 of every workload runs through
inputs -> run -> check with no problems. The digest the benchmark keeps
of adamw's op 0 at seed 1 is pinned too, so a change that moves that
output fails here rather than only in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.append(str(BENCH))

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("entry", tracer.ENTRY_POINTS,
                         ids=lambda e: f"{e[0].__name__}.{e[1]}")
def test_traced_entry_point_exists(entry):
    owner, attr = entry[0], entry[1]
    if isinstance(owner, type):
        assert attr in owner.__dict__
    else:
        assert callable(getattr(owner, attr, None))


def _run_op(wl, **kwargs):
    checked = wl.check(wl.run(wl.inputs(SEED, 0), **kwargs))
    assert checked.problems == []
    return checked


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_runs_clean(name):
    wl = workloads.WORKLOADS[name]()
    checked = _run_op(wl, **wl.serial_kwargs)
    if name == "battery":
        assert _run_op(wl, workers=wl.WORKERS).output == checked.output
    if name == "adamw":
        assert bench_run.digest(checked.output) == "2435701a516f9727a9422c5f2d0021b3"
