"""Golden digests: both cycle loops reproduce the recorded results.

``tests/golden/results.json`` maps every cell of a fixed grid to the
sha256 of its canonical result document (the store's own codec,
:func:`~repro.service.serialization.canonical_dumps` over
``_result_to_dict``), so every :class:`SystemResult` field — cycles,
stall and back-pressure counters, alerts in simulation order,
per-attack detection latencies — is pinned bit for bit.  Each cell
runs under the dense reference loop and under the event-driven loop,
and both must match the recorded digest.  The sha256 of the file
itself is the **model fingerprint**: a change that moves it changes
the model's answers.

The grid:

* ``identity-*`` — {swaptions, dedup} × {asan, pmc+shadow_stack} ×
  {4, 12} engines × {in-memory, streamed in 512-record chunks}, seed
  11, 2500 records;
* ``attack-*`` — one matched kernel/attack pair per software kernel
  and the ASan hardware accelerator, 8 attacks over 5000 records;
* ``fuzz-*`` — two armed fuzzer campaigns, in memory and streamed;
* ``ab-*`` — the scheduler grid (spin-poll and blocking kernels, many
  and few engines, NoC traffic with detections, multi-kernel, an
  accelerator), a non-integer clock ratio and heavy back-pressure;
* ``scenario-*`` — two multi-phase scenarios × two kernels, in memory
  and streamed;
* ``standalone-*`` — ``MainCore().run_standalone``, the baseline and
  software-instrumentation runs: {swaptions, dedup} × {clean, 4 OOB
  attacks} in memory, one streamed clean trace, and every
  :data:`~repro.baselines.instrument.SCHEMES` entry over one clean
  trace, seed 11, 4000 records.  These cells have no session loop;
  each pins every :class:`~repro.ooo.core.CoreResult` counter plus the
  predictor, TAGE, FU-pool, PRF, cache, DRAM and TLB statistics.

The test never writes the file.  To record it (only when a change is
*meant* to alter results, and never in the same commit as code that
should not)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.baselines.instrument import SCHEMES, instrument_trace
from repro.core.config import FireGuardConfig
from repro.core.system import FireGuardSystem
from repro.kernels import make_kernel
from repro.kernels.pmc import DEFAULT_BOUND_HI, DEFAULT_BOUND_LO
from repro.ooo.core import MainCore
from repro.service.serialization import _result_to_dict, canonical_dumps
from repro.sim import SimulationSession
from repro.trace.attacks import AttackKind, AttackPlan, inject_attacks
from repro.trace.fuzz import FuzzConfig, fuzz_case
from repro.trace.generator import generate_trace
from repro.trace.io import save_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.scenario import (
    Phase,
    Scenario,
    compose_stream,
    compose_trace,
)
from repro.trace.stream import StreamedTrace

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "results.json"

CHUNK_RECORDS = 512


def result_digest(result) -> str:
    """The golden digest of one :class:`SystemResult`."""
    return hashlib.sha256(
        canonical_dumps(_result_to_dict(result))).hexdigest()


def standalone_counters(core: MainCore) -> dict[str, int]:
    """Every counter a standalone run leaves on ``core``."""
    result = core.result
    counters = {f.name: getattr(result, f.name) for f in fields(result)
                if f.name != "commit_times"}
    predictor = core.predictor
    counters.update(
        predictor_branches=predictor.stat_branches,
        predictor_mispredicts=predictor.stat_mispredicts,
        tage_lookups=predictor.tage.stat_lookups,
        tage_mispredicts=predictor.tage.stat_mispredicts)
    hierarchy = core.hierarchy
    for prefix, component in (
            ("fu", core.fu_pool), ("prf", core.prf),
            ("l1i", hierarchy.l1i), ("l1d", hierarchy.l1d),
            ("l2", hierarchy.l2), ("llc", hierarchy.llc),
            ("dram", hierarchy.dram), ("itlb", hierarchy.itlb),
            ("dtlb", hierarchy.dtlb)):
        counters.update({f"{prefix}_{name}": value
                         for name, value in component.stats().items()})
    return counters


class Cell:
    """One grid point: how to build its system and its trace source.

    ``trace(workdir)`` returns a zero-argument factory yielding a fresh
    trace source per run (streamed sources are forward-only, so each
    loop opens its own reader).  ``check`` guards against a vacuous
    cell, e.g. an attack cell that detects nothing.
    """

    def __init__(self, system, trace, check=None):
        self.system = system
        self.trace = trace
        self.check = check


def _system(kernel_names, engines=None, **kwargs) -> FireGuardSystem:
    if engines is not None:
        kwargs["engines_per_kernel"] = {name: engines
                                        for name in kernel_names}
    return FireGuardSystem([make_kernel(name) for name in kernel_names],
                           **kwargs)


def _in_memory(make):
    def factory(workdir):
        trace = make()
        return lambda: trace
    return factory


def _saved(make):
    """Stream an in-memory trace back from an FGTRACE1 file."""
    def factory(workdir):
        path = Path(workdir) / "trace.fgt"
        save_trace(make(), path)
        return lambda: StreamedTrace(path, chunk_records=CHUNK_RECORDS)
    return factory


def _composed(scenario, seed):
    def factory(workdir):
        trace, _ = compose_trace(scenario, seed)
        return lambda: trace
    return factory


def _composed_stream(scenario, seed):
    def factory(workdir):
        path = Path(workdir) / "scenario.fgt"
        compose_stream(scenario, seed, path, chunk_records=CHUNK_RECORDS)
        return lambda: StreamedTrace(path, chunk_records=CHUNK_RECORDS)
    return factory


def _detects(result) -> bool:
    return bool(result.detections)


def _generated(bench, seed, length, attack=None, count=0, **inject):
    def make():
        trace = generate_trace(PARSEC_PROFILES[bench], seed=seed,
                               length=length)
        if attack is not None:
            inject_attacks(trace, attack, count, **inject)
        return trace
    return make


def _identity_cells() -> dict[str, Cell]:
    kernel_sets = {"asan": ("asan",), "pmc+shadow": ("pmc", "shadow_stack")}
    cells = {}
    for bench in ("swaptions", "dedup"):
        for label, names in kernel_sets.items():
            for engines in (4, 12):
                def system(names=names, engines=engines):
                    return _system(names, engines)
                make = _generated(bench, 11, 2500)
                stem = f"identity-{bench}-{label}-{engines}"
                cells[f"{stem}-mem"] = Cell(system, _in_memory(make))
                cells[f"{stem}-stream"] = Cell(system, _saved(make))
    return cells


def _attack_cells() -> dict[str, Cell]:
    cells = {}
    for kernel, bench, kind in (
            ("asan", "dedup", AttackKind.OOB_ACCESS),
            ("pmc", "ferret", AttackKind.PMC_BOUND),
            ("shadow_stack", "bodytrack", AttackKind.RET_HIJACK)):
        make = _generated(bench, 31, 5000, kind, 8,
                          pmc_bounds=(DEFAULT_BOUND_LO, DEFAULT_BOUND_HI))
        cells[f"attack-{kernel}-{bench}"] = Cell(
            lambda kernel=kernel: _system((kernel,), 4),
            _in_memory(make), _detects)
    cells["attack-asan-accelerator-dedup"] = Cell(
        lambda: _system(("asan",), accelerated={"asan"}),
        _in_memory(_generated("dedup", 31, 5000, AttackKind.OOB_ACCESS, 8)),
        _detects)
    return cells


def _fuzz_cells() -> dict[str, Cell]:
    config = FuzzConfig(campaigns=4, min_phase=700, max_phase=900)
    cells = {}
    for index in (1, 2):
        case = fuzz_case(config, index)
        assert not case.attack_free

        def system():
            return _system(("asan", "pmc", "shadow_stack"), 2)
        cells[f"fuzz-{index}-mem"] = Cell(
            system, _composed(case.scenario, case.seed), _detects)
        cells[f"fuzz-{index}-stream"] = Cell(
            system, _composed_stream(case.scenario, case.seed), _detects)
    return cells


def _ab_cells() -> dict[str, Cell]:
    grid = (
        # (benchmark, kernel set, system kwargs, attack)
        ("swaptions", ("pmc",), {}, None),                 # spin-poll
        ("dedup", ("asan",), {}, None),                    # blocking
        ("x264", ("asan",),
         {"engines_per_kernel": {"asan": 12}}, None),      # many engines
        ("bodytrack", ("shadow_stack",), {},
         AttackKind.RET_HIJACK),                           # NoC + detections
        ("swaptions", ("shadow_stack", "uaf"), {}, None),  # multi-kernel
        ("swaptions", ("shadow_stack",),
         {"accelerated": frozenset({"shadow_stack"})}, None),  # accelerator
        ("ferret", ("uaf",),
         {"engines_per_kernel": {"uaf": 2}}, None),        # few engines
    )
    cells = {}
    for bench, kernels, kwargs, attack in grid:
        name = f"ab-{bench}-{'+'.join(kernels)}"
        if "accelerated" in kwargs:
            name += "-accelerator"
        cells[name] = Cell(
            lambda kernels=kernels, kwargs=kwargs: _system(kernels,
                                                           **kwargs),
            _in_memory(_generated(bench, 17, 3000, attack, 6)),
            _detects if attack is not None else None)
    # advance_to's non-periodic accumulator path.
    slow_clock = replace(FireGuardConfig(), low_freq_ghz=1.3)
    cells["ab-dedup-asan-clock1.3"] = Cell(
        lambda: _system(("asan",), config=slow_clock),
        _in_memory(_generated("dedup", 17, 3000)))
    # Tiny CDC and message queues keep the fabric full.
    tight = replace(FireGuardConfig(), cdc_depth=2, msgq_depth=2)
    cells["ab-dedup-asan-backpressure"] = Cell(
        lambda: _system(("asan",), config=tight),
        _in_memory(_generated("dedup", 17, 3000)),
        lambda result: result.msgq_full_cycles > 0)
    return cells


SCENARIOS = (
    Scenario(name="grid-boot-serve", phases=(
        Phase("dedup", 1200, label="boot"),
        Phase("swaptions", 1600, label="serve",
              attacks=(AttackPlan(AttackKind.RET_HIJACK, 6),)),
    )),
    Scenario(name="grid-churn", phases=(
        Phase("dedup", 1500, label="churn",
              attacks=(AttackPlan(AttackKind.OOB_ACCESS, 6),)),
        Phase("x264", 1300, label="encode",
              attacks=(AttackPlan(AttackKind.OOB_ACCESS, 4),)),
    )),
)

#: Kernel/scenario pairs whose attacks the kernel is built to catch.
MATCHED = {("shadow_stack", "grid-boot-serve"), ("asan", "grid-churn")}


def _scenario_cells() -> dict[str, Cell]:
    cells = {}
    for scenario in SCENARIOS:
        for kernel in ("shadow_stack", "asan"):
            def system(kernel=kernel):
                return _system((kernel,), 2)
            check = _detects if (kernel, scenario.name) in MATCHED \
                else None
            stem = f"scenario-{scenario.name}-{kernel}"
            cells[f"{stem}-mem"] = Cell(
                system, _composed(scenario, 13), check)
            cells[f"{stem}-stream"] = Cell(
                system, _composed_stream(scenario, 13), check)
    return cells


CELLS: dict[str, Cell] = {
    **_identity_cells(), **_attack_cells(), **_fuzz_cells(),
    **_ab_cells(), **_scenario_cells()}


def _instrumented(make, scheme):
    def make_instrumented():
        return instrument_trace(make(), SCHEMES[scheme])
    return make_instrumented


def _standalone_cells() -> dict:
    """Trace-source factories for the ``standalone-*`` cells."""
    cells = {}
    for bench in ("swaptions", "dedup"):
        for label, attack in (("clean", None),
                              ("oob", AttackKind.OOB_ACCESS)):
            cells[f"standalone-{bench}-{label}-mem"] = _in_memory(
                _generated(bench, 11, 4000, attack, 4))
    clean = _generated("dedup", 11, 4000)
    cells["standalone-dedup-clean-stream"] = _saved(clean)
    for scheme in SCHEMES:
        cells[f"standalone-dedup-{scheme}-mem"] = _in_memory(
            _instrumented(clean, scheme))
    return cells


STANDALONE: dict = _standalone_cells()

LOOPS = {"dense": True, "event": False}


def run_cell(name: str, dense: bool, workdir):
    cell = CELLS[name]
    source = cell.trace(workdir)
    result = SimulationSession(cell.system(), dense=dense).run(source())
    if cell.check is not None:
        assert cell.check(result), f"{name}: vacuous cell"
    return result


def run_standalone_cell(name: str, workdir) -> str:
    """Digest of the counters one standalone cell leaves behind."""
    core = MainCore()
    core.run_standalone(STANDALONE[name](workdir)())
    return hashlib.sha256(
        canonical_dumps(standalone_counters(core))).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_grid():
    assert set(load_golden()) == set(CELLS) | set(STANDALONE)


@pytest.mark.parametrize("loop", sorted(LOOPS))
@pytest.mark.parametrize("name", sorted(CELLS))
def test_matches_golden(name, loop, tmp_path):
    golden = load_golden()
    assert name in golden, f"{name} has no recorded digest"
    result = run_cell(name, LOOPS[loop], tmp_path)
    assert result_digest(result) == golden[name], \
        f"{name} under the {loop} loop diverged from its golden digest"


@pytest.mark.parametrize("name", sorted(STANDALONE))
def test_standalone_matches_golden(name, tmp_path):
    golden = load_golden()
    assert name in golden, f"{name} has no recorded digest"
    assert run_standalone_cell(name, tmp_path) == golden[name], \
        f"{name} diverged from its golden digest"


def record() -> None:
    """Write :data:`GOLDEN_PATH` from the current model; the two loops
    must agree on every cell before anything is written."""
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CELLS):
            per_loop = {loop: result_digest(run_cell(name, dense, workdir))
                        for loop, dense in LOOPS.items()}
            if len(set(per_loop.values())) != 1:
                raise SystemExit(f"{name}: loops disagree {per_loop}")
            digests[name] = per_loop["dense"]
            print(f"{name:48} {digests[name][:16]}")
        for name in sorted(STANDALONE):
            digests[name] = run_standalone_cell(name, workdir)
            print(f"{name:48} {digests[name][:16]}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(digests, indent=1, sort_keys=True) + "\n").encode()
    GOLDEN_PATH.write_bytes(data)
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    print(f"model fingerprint {hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    record()
