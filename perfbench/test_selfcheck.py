"""Self-check: traced passes at the default seed are exact anchors.

Two traced passes of one workload, in one process after the same
warm-up pass, must give identical ``calls_per_kcycle`` for every
profile bucket and identical ``RunRecord`` model counts, and both must
reproduce the fingerprints recorded in ``fingerprints.json``.  Later
changes can then cite these counts as exact before/after figures.

Run from the repository root::

    python3 -m pytest perfbench/test_selfcheck.py -q
"""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402
from refclock import WallClock  # noqa: E402


@pytest.fixture(scope="module")
def space(tmp_path_factory):
    saved = {name: os.environ.get(name)
             for name in ("REPRO_TRACE_SPOOL", "TMPDIR")}
    yield run.Workspace(tmp_path_factory.mktemp("perfbench"))
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def traced_pass(workload, space):
    with Tracer() as tracer:
        records, _, _ = run.cold_pass(workload, space, WallClock(), tracer)
    calls = {name: value for name, value in tracer.layer_metrics().items()
             if name.endswith(".calls_per_kcycle")}
    return records, calls, tracer.sim_cycles


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(name, space):
    workload = workloads.build(name, run.DEFAULT_SEED)
    checker = workloads.Checker(
        workload, workloads.recorded_fingerprints(name))
    run.cold_pass(workload, space, WallClock())  # warm-up: lazy imports
    first, first_calls, first_cycles = traced_pass(workload, space)
    second, second_calls, second_cycles = traced_pass(workload, space)

    reference = checker.check_pass(first)
    checker.check_pass(second, reference=reference)
    assert checker.failed == 0, checker.messages
    assert checker.expected, f"no recorded fingerprints for {name}"

    assert first_cycles == second_cycles > 0
    assert first_calls == second_calls
    assert workloads.model_counts(first) == workloads.model_counts(second)
