"""The traced pass: spans around each layer's public entry points plus a
per-module profile of host time and call counts.

Nothing under ``src/`` is edited.  :class:`Tracer` swaps timing
wrappers onto the public functions the runner calls (module attributes
and class methods) for the duration of one pass and restores them
afterwards.  Host time and primitive call counts come from
:mod:`cProfile`, enabled in the client's execution thread around each
``execute_spec`` call and in the submitting thread around submissions
only (never while it waits), then attributed to this repository's
modules.

Spans are inclusive and may nest: ``trace.compose_s`` contains the
generation and injection of composed phases, ``trace.spool_s`` the
writer's file I/O.  Self shares are shares of profiled time, because
profiling itself slows the pass several-fold (``trace.overhead_x``).
"""

from __future__ import annotations

import cProfile
import contextlib
import os
from pathlib import Path
from time import perf_counter

import repro
import repro.runner.worker as worker_module
import repro.service.client as client_module
import repro.trace.attacks as attacks_module
import repro.trace.scenario as scenario_module
from repro.core.system import FireGuardSystem
from repro.ooo.core import MainCore
from repro.service.store import ResultStore
from repro.sim.session import SimulationSession
from repro.trace.generator import TraceGenerator
from repro.trace.scenario import ScenarioComposer
from repro.trace.stream import TraceWriter

SPANS = (
    "trace.generate_s", "trace.inject_s", "trace.compose_s",
    "trace.spool_s", "baselines.instrument_s", "ooo.baseline_s",
    "core.build_s", "sim.run_s", "sim.reset_s",
    "service.store_get_s", "service.store_put_s",
)

#: Profile buckets: packages under src/repro, with hotpath and core
#: split by file; "rest" is the package's unlisted files, "builtins"
#: everything outside the repository, "other" repository code in no
#: listed layer (including this benchmark's wrappers).
PACKAGES = ("sim", "sched", "clock", "ooo", "branch", "mem", "ucore",
            "kernels", "trace", "isa", "utils", "service", "runner",
            "baselines")
SPLIT_FILES = {
    "hotpath": ("ucore_kernel", "ooo_kernel"),
    "core": ("event_filter", "fabric", "msgqueue", "noc", "cdc",
             "accelerator"),
}
BUCKETS = PACKAGES + tuple(
    f"{package}.{name}" for package, names in SPLIT_FILES.items()
    for name in names + ("rest",)) + ("builtins", "other")

_REPRO_DIR = Path(repro.__file__).resolve().parent
_REPO_DIR = _REPRO_DIR.parent.parent


def bucket_of(filename: str) -> str:
    """The profile bucket of one code object's file."""
    if filename.startswith(("~", "<")):
        return "builtins"
    path = Path(os.path.abspath(filename))
    try:
        parts = path.relative_to(_REPRO_DIR).parts
    except ValueError:
        try:
            path.relative_to(_REPO_DIR)
        except ValueError:
            return "builtins"
        return "other"
    package = parts[0] if len(parts) > 1 else ""
    if package in SPLIT_FILES:
        stem = Path(parts[-1]).stem
        return f"{package}.{stem if stem in SPLIT_FILES[package] else 'rest'}"
    return package if package in PACKAGES else "other"


class Tracer:
    """Spans and profiles for one traced pass.

    Use as a context manager around the pass; profile the submitting
    thread with :meth:`profiling`.  ``sim_cycles`` counts the cycles
    actually simulated (monitored, baseline and software runs).
    """

    def __init__(self) -> None:
        self.spans = dict.fromkeys(SPANS, 0.0)
        self.sim_cycles = 0
        self.worker_profile = cProfile.Profile()
        self.main_profile = cProfile.Profile()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------
    def _timed(self, span: str, fn, cycles: bool = False):
        spans = self.spans

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span] += perf_counter() - start
            if cycles:
                self.sim_cycles += result.cycles
            return result
        return timed

    def _timed_generator(self, span: str, fn):
        """Times every resumption of a generator function's body."""
        spans = self.spans

        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            spent = 0.0
            try:
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spent += perf_counter() - start
                    yield item
            finally:
                inner.close()
                spans[span] += spent
        return timed

    def _profiled(self, fn):
        profile = self.worker_profile

        def profiled(*args, **kwargs):
            profile.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.disable()
        return profiled

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "Tracer":
        patches = [
            (TraceGenerator, "iter_records", "trace.generate_s", "gen"),
            (ScenarioComposer, "phases", "trace.compose_s", "gen"),
            (attacks_module, "inject_attacks", "trace.inject_s", "fn"),
            (worker_module, "inject_attacks", "trace.inject_s", "fn"),
            (scenario_module, "inject_attacks", "trace.inject_s", "fn"),
            (TraceWriter, "__init__", "trace.spool_s", "fn"),
            (TraceWriter, "extend", "trace.spool_s", "fn"),
            (TraceWriter, "finalize", "trace.spool_s", "fn"),
            (worker_module, "instrument_trace", "baselines.instrument_s",
             "fn"),
            (MainCore, "run_standalone", "ooo.baseline_s", "cycles"),
            (worker_module, "FireGuardSystem", "core.build_s", "fn"),
            (FireGuardSystem, "session", "core.build_s", "fn"),
            (SimulationSession, "run", "sim.run_s", "cycles"),
            (SimulationSession, "reset", "sim.reset_s", "fn"),
            (ResultStore, "get", "service.store_get_s", "fn"),
            (ResultStore, "put", "service.store_put_s", "fn"),
        ]
        try:
            for owner, name, span, kind in patches:
                fn = owner.__dict__[name]
                if kind == "gen":
                    wrapper = self._timed_generator(span, fn)
                else:
                    wrapper = self._timed(span, fn, cycles=kind == "cycles")
                self._patch(owner, name, wrapper)
            self._patch(client_module, "execute_spec",
                        self._profiled(client_module.execute_spec))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def profiling(self):
        """Profile the calling (submitting) thread inside the block."""
        self.main_profile.enable()
        try:
            yield
        finally:
            self.main_profile.disable()

    # -- results ---------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """``<bucket>.self_share`` and ``<bucket>.calls_per_kcycle`` for
        every bucket, plus the spans."""
        self_time = dict.fromkeys(BUCKETS, 0.0)
        calls = dict.fromkeys(BUCKETS, 0)
        for profile in (self.main_profile, self.worker_profile):
            profile.create_stats()
            for (filename, _, _), (prim, _, tottime, _, _) \
                    in profile.stats.items():
                bucket = bucket_of(filename)
                self_time[bucket] += tottime
                calls[bucket] += prim
        total = sum(self_time.values()) or 1.0
        kcycles = max(self.sim_cycles, 1) / 1000.0
        out: dict[str, float] = {}
        for bucket in BUCKETS:
            out[f"{bucket}.self_share"] = self_time[bucket] / total
            out[f"{bucket}.calls_per_kcycle"] = calls[bucket] / kcycles
        out.update(self.spans)
        return out
