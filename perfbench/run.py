"""Benchmark runner for the FireGuard reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload asan-12u --seed 7 --seconds 20 --trace 0

Each pass is a cold first run of the workload's spec grid through the
production path -- ``Client(workers=1)`` -> ``execute_spec`` -> trace /
baseline / ``SimulationSession.run`` / ``ResultStore`` -- after
``clear_caches()``, with an empty trace spool and a fresh store.  One
untimed warm-up pass comes first; timed passes then repeat until
``--seconds`` have passed (at least two).  Every record of every pass
is checked against exact ground truth and, at the default seed, against
the fingerprints in ``fingerprints.json``.

``--trace 0`` prints the end-to-end metrics.  Their host times are in
reference seconds (see ``refclock.py``): the process is pinned to one
CPU, a calibrator shares it, and CPU time is scaled by the host speed
the calibrator sees.  ``--trace 1`` prints the per-layer metrics of one
extra traced pass (see ``layers.py``), timed in wall seconds.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--record-fingerprints`` runs one pass at the given seed
and rewrites that workload's entry in ``fingerprints.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from refclock import ClockError, ReferenceClock, WallClock, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = ("asan-12u", "fig7a-core", "fuzz-stream")
DEFAULT_SEED = 7

#: Knobs that select execution paths the benchmark must not depend on.
FORBIDDEN_ENV = ("REPRO_BACKEND", "REPRO_DENSE_LOOP", "REPRO_HOTPATH",
                 "REPRO_PROFILE", "REPRO_FABRIC", "REPRO_WORKERS",
                 "REPRO_REQUIRE_STORE_HIT")

MIN_PASSES = 2
MIN_SETUP_PROBES = 5
WARM_ROUNDS_PER_PASS = 10


class BenchError(Exception):
    """A named reason the benchmark cannot run here."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a "
                         "checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_environment() -> None:
    set_vars = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_vars:
        raise BenchError(
            "unset " + ", ".join(set_vars) + ": the benchmark measures "
            "the default execution path only")


class Workspace:
    """Scratch directories inside the checkout: the trace spool (fixed
    for the process, emptied between passes) and per-pass stores."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.spool = root / "spool"
        self.spool.mkdir(parents=True)
        self._stores = 0
        os.environ["REPRO_TRACE_SPOOL"] = str(self.spool)
        os.environ["TMPDIR"] = str(root)
        tempfile.tempdir = str(root)

    def fresh_store(self):
        from repro.service.store import ResultStore

        self._stores += 1
        return ResultStore(self.root / f"store-{self._stores}")

    def reset_spool(self) -> None:
        for path in self.spool.iterdir():
            path.unlink()


def cold_pass(workload, space: Workspace, clock, tracer=None):
    """One cold run of the grid; returns ``(records, seconds, store)``
    with the host seconds (of ``clock``) each spec took, in grid order.

    A spec that raises yields its exception in place of a record.  Only
    submission and result collection are timed.  The client executes
    specs one at a time in submission order, so each result's arrival
    marks the end of that spec and the start of the next.
    """
    from repro.runner import worker
    from repro.service import Client

    worker.clear_caches()
    space.reset_spool()
    # Same collector state at every pass start, so collections (and the
    # generator finalizers they run) fall at the same points.
    gc.collect()
    store = space.fresh_store() if workload.use_store else None
    client = Client(workers=1, store=store if store is not None else False)
    try:
        start, speed = clock.now(), clock.speed_mark()
        if tracer is None:
            handles = client.submit_many(workload.specs)
        else:
            with tracer.profiling():
                handles = client.submit_many(workload.specs)
        records, seconds = [], []
        for handle in handles:
            try:
                records.append(handle.result())
            except Exception as exc:  # a failed spec is counted, not fatal
                records.append(exc)
            now = clock.now()
            seconds.append((now - start) * clock.speed_since(speed))
            start, speed = now, clock.speed_mark()
    finally:
        client.close()
    return records, seconds, store


def warm_answers(workload, store, prints, checker, rounds: int, clock,
                 tracer=None) -> list[float]:
    """Resubmit the grid to a fresh client over a warm store, ``rounds``
    times; returns each round's mean host ms (of ``clock``) per answered
    spec and checks each answer's fingerprint.  Answer cost differs by
    spec (record size), so a round's mean is steadier than single
    answers.  A round takes about a millisecond, so host speed is
    measured on either side of it (see ``ReferenceClock.bracketed``).
    Each round starts after a full collection, as each cold pass does:
    otherwise collections and the cache state they leave fall on rounds
    unevenly."""
    from repro.service import Client
    from repro.service.store import ResultStore

    from workloads import fingerprint

    means = []
    for _ in range(rounds):
        client = Client(workers=1, store=ResultStore(store.root))
        gc.collect()
        try:
            spent, speed, answers = 0.0, clock.speed_mark(), []
            with clock.bracketed():
                for label, spec in workload.cells:
                    start = clock.now()
                    try:
                        if tracer is None:
                            record = client.submit(spec).result()
                        else:
                            with tracer.profiling():
                                record = client.submit(spec).result()
                    except Exception as exc:  # counted as a failed answer
                        record = exc
                    spent += clock.now() - start
                    answers.append((label, record))
            for label, record in answers:
                checker.check_same(
                    f"warm {label}",
                    None if isinstance(record, Exception)
                    else fingerprint(record), prints.get(label, "missing"))
            means.append(spent * clock.speed_since(speed) * 1e3
                         / len(workload.cells))
        finally:
            client.close()
    return means


def seeded_store(space: Workspace, workload, records):
    """A store holding one pass's records (the warm store for grids
    whose cold passes run without persistence)."""
    store = space.fresh_store()
    for spec, record in zip(workload.specs, records):
        if not isinstance(record, Exception):
            store.put(spec.cache_key(), record)
    return store


def setup_sample(clock: ReferenceClock, workload: str, seed: int) -> float:
    """Set-up reference seconds of one fresh interpreter (see
    setup_probe), which inherits this process's CPU pin."""
    speed = clock.speed_mark()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    cpu_seconds = float(out.stdout.strip().splitlines()[-1])
    return cpu_seconds * clock.speed_since(speed)


def setup_probe(name: str, seed: int) -> float:
    """CPU seconds from process start to the first submission:
    interpreter start, imports, grid and corpus build, store and client
    creation."""
    use_checkout_sources()
    import workloads
    from repro.service import Client
    from repro.service.store import ResultStore

    workload = workloads.build(name, seed)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
        store = ResultStore(Path(scratch) / "store") \
            if workload.use_store else False
        Client(workers=1, store=store).close()
        return time.process_time()


def simulated_metrics(records) -> dict[str, dict]:
    """Per-grid model outputs (exact at a seed)."""
    ratios = [r.slowdown for r in records if r.baseline_cycles]
    latencies = [ns for r in records for ns in r.result.detections.values()]
    return {
        "slowdown_geomean": metric(math.exp(
            sum(math.log(x) for x in ratios) / len(ratios)), "x"),
        "detect_ns_p50": metric(
            statistics.median(latencies) if latencies else 0.0, "ns"),
        "detect_samples": metric(len(latencies), "count"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_passes(args, workload, space, clock, checker, prints, records):
    """Timed cold passes until ``--seconds`` have passed.  Without
    ``--trace``, each pass is followed by warm answers and one set-up
    probe, so these samples are spread over the whole run.  Returns the
    per-pass spec seconds, warm ms, set-up seconds and wall seconds."""
    warm_store = seeded_store(space, workload, records)
    spec_seconds, warm_ms, setup_s, wall_s = [], [], [], []
    began = time.perf_counter()
    while len(spec_seconds) < MIN_PASSES \
            or time.perf_counter() - began < args.seconds:
        start = time.perf_counter()
        records, seconds, _ = cold_pass(workload, space, clock)
        wall_s.append(time.perf_counter() - start)
        spec_seconds.append(seconds)
        checker.check_pass(records)
        if not args.trace:
            warm_ms += warm_answers(workload, warm_store, prints, checker,
                                    WARM_ROUNDS_PER_PASS, clock)
            setup_s.append(setup_sample(clock, args.workload, args.seed))
    while not args.trace and len(setup_s) < MIN_SETUP_PROBES:
        setup_s.append(setup_sample(clock, args.workload, args.seed))
    return spec_seconds, warm_ms, setup_s, wall_s


def run(args, space: Workspace) -> dict:
    use_checkout_sources()
    import workloads

    workload = workloads.build(args.workload, args.seed)
    expected = workloads.recorded_fingerprints(workload.name) \
        if args.seed == DEFAULT_SEED and not args.record_fingerprints else {}
    checker = workloads.Checker(workload, expected)

    records, _, _ = cold_pass(workload, space, WallClock())
    prints = checker.check_pass(records)
    if args.record_fingerprints:
        if checker.failed:
            raise BenchError("ground truth failed; not recording: "
                             + " | ".join(checker.messages))
        workloads.record_fingerprints(workload.name, prints)
        print(f"recorded {len(prints)} fingerprints for {workload.name}")
        return {}

    # End-to-end times are reference seconds; the traced pass and the
    # untimed passes it is compared with are wall seconds.
    try:
        clock = WallClock() if args.trace else ReferenceClock()
        try:
            spec_seconds, warm_ms, setup_s, wall_s = timed_passes(
                args, workload, space, clock, checker, prints, records)
        finally:
            clock.close()
    except ClockError as exc:
        raise BenchError(f"reference clock: {exc}") from exc
    good = [r for r in records if not isinstance(r, Exception)]
    # The median pass, assembled from each spec's median across passes,
    # so one slow spec in one pass does not move it.
    untraced_s = sum(map(statistics.median, zip(*spec_seconds)))
    instructions = workloads.sim_instructions(good)
    print(f"# {workload.name} seed={args.seed}: {len(spec_seconds)} timed "
          f"passes, median {untraced_s:.3f} {clock.unit}, median wall "
          f"{statistics.median(wall_s):.3f} s, {instructions} simulated "
          f"instructions per pass", file=sys.stderr)

    if not args.trace:
        metrics = {
            "sim_kips": metric(instructions / untraced_s / 1e3, "kIPS"),
            "setup_s": metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": metric(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "warm_ms_p50": metric(statistics.median(warm_ms), "ms"),
        }
    else:
        from layers import Tracer

        with Tracer() as tracer:
            traced, traced_s, store = cold_pass(workload, space, clock,
                                                tracer)
            traced_s = sum(traced_s)
            if workload.use_store:
                warm_answers(workload, store, prints, checker, 1, clock,
                             tracer)
        checker.check_pass(traced, reference=prints)
        units = {"self_share": "share", "calls_per_kcycle": "calls/kcycle"}
        metrics = {name: metric(value, units.get(name.rsplit(".", 1)[1], "s"))
                   for name, value in tracer.layer_metrics().items()}
        metrics["trace.overhead_x"] = metric(traced_s / untraced_s, "x")
        for name, value in workloads.model_counts(good).items():
            metrics[name] = metric(value, "count")
        metrics.update(simulated_metrics(good))
    for message in checker.messages:
        print(f"# FAILED {message}", file=sys.stderr)
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-fingerprints", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
        use_checkout_sources()
        WORK_ROOT.mkdir(exist_ok=True)
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        if not args.trace:
            pin_to_one_cpu()  # before any thread or child starts
        space_root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        try:
            result = run(args, Workspace(space_root))
        finally:
            shutil.rmtree(space_root, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
