"""Shared plumbing for the experiment harnesses.

The harnesses are thin now: each one builds a batch of
:class:`~repro.runner.spec.RunSpec` and submits it to the shared
:func:`~repro.service.client.default_client`, which memoises records
per spec (overlapping figures simulate a configuration once), reads
through the persistent result store when ``REPRO_RESULT_STORE`` is
set (a warm rerun of a figure simulates nothing), and fans out over
worker processes when ``REPRO_WORKERS`` > 1.

:func:`run_cells` keeps the batch shape the table-building harnesses
want; :func:`stream_cells` yields ``(label, record)`` pairs as runs
complete, for harnesses that render incrementally.  ``run_monitored``
survives as a one-spec convenience wrapper for callers that want a
single (result, baseline) pair.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.isax import IsaxStyle
from repro.core.system import SystemResult
from repro.kernels.base import KernelStrategy
from repro.runner import (
    DEFAULT_SEED,
    DEFAULT_TRACE_LEN,
    RunRecord,
    RunSpec,
    trace_length,
)
from repro.runner import worker as _worker
from repro.service import Client, default_client
from repro.trace.record import Trace
from repro.trace.scenario import Scenario

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TRACE_LEN",
    "baseline_cycles",
    "cached_trace",
    "make_spec",
    "resolve_client",
    "run_cells",
    "run_monitored",
    "stream_cells",
    "trace_length",
    "workload_rows",
]


def workload_rows(benchmarks: Sequence[str],
                  scenario: "Scenario | str | None" = None,
                  ) -> list[tuple[str, "Scenario | str | None"]]:
    """The workload axis of a harness: ``(row label, scenario)`` pairs.

    Without a scenario this is the per-benchmark sweep every figure
    runs; with one, the scenario replaces the benchmark axis (one row,
    labelled by the scenario's name) so any harness can regenerate its
    figure over a multi-phase workload.
    """
    if scenario is None:
        return [(bench, None) for bench in benchmarks]
    name = scenario if isinstance(scenario, str) else scenario.name
    return [(name, scenario)]


def cached_trace(benchmark: str, seed: int = DEFAULT_SEED,
                 length: int | None = None) -> Trace:
    """Generate (once) the trace for a benchmark.  Shares the runner
    worker's process-wide trace cache."""
    return _worker.cached_trace(benchmark, seed,
                                length or trace_length())


def baseline_cycles(benchmark: str, seed: int = DEFAULT_SEED,
                    length: int | None = None) -> int:
    """Unmonitored-core cycles (the slowdown denominator).  Shares the
    runner worker's process-wide baseline cache."""
    return _worker.baseline_cycles(benchmark, seed,
                                   length or trace_length())


def make_spec(benchmark: str, kernel_names: tuple[str, ...],
              engines_per_kernel: int = 4,
              accelerated: frozenset[str] = frozenset(),
              filter_width: int = 4,
              strategy: KernelStrategy = KernelStrategy.HYBRID,
              isax_style: IsaxStyle = IsaxStyle.MA_STAGE,
              seed: int = DEFAULT_SEED,
              length: int | None = None,
              scenario: "Scenario | str | None" = None,
              stream: bool = False) -> RunSpec:
    """A spec with the historical ``run_monitored`` defaults."""
    from repro.core.config import FireGuardConfig

    return RunSpec(benchmark=benchmark, kernels=tuple(kernel_names),
                   engines_per_kernel=engines_per_kernel,
                   accelerated=frozenset(accelerated),
                   strategy=strategy, isax_style=isax_style,
                   config=FireGuardConfig(filter_width=filter_width,
                                          num_engines=engines_per_kernel),
                   seed=seed, length=length, scenario=scenario,
                   stream=stream)


def resolve_client(client: Any = None) -> Client:
    """The execution client a harness should use: an explicit
    :class:`~repro.service.client.Client` or the process-wide
    default."""
    if client is None:
        return default_client()
    if isinstance(client, Client):
        return client
    raise TypeError(f"expected a Client, got {type(client).__name__}")


def stream_cells(cells: Sequence[tuple[Any, RunSpec]],
                 client: Any = None,
                 ) -> Iterator[tuple[Any, RunRecord]]:
    """Submit labelled specs and yield ``(label, record)`` pairs in
    submission order, each as soon as it completes — the incremental
    path every table harness is built on."""
    client = resolve_client(client)
    labels = [label for label, _ in cells]
    for label, record in zip(labels,
                             client.map([spec for _, spec in cells])):
        yield label, record


def run_cells(cells: Sequence[tuple[Any, RunSpec]],
              client: Any = None,
              ) -> list[tuple[Any, RunRecord]]:
    """Run labelled specs as one batch; ``(label, record)`` pairs come
    back in submission order, so harnesses never maintain separate
    label and spec lists that must stay index-aligned."""
    return list(stream_cells(cells, client))


def run_monitored(benchmark: str, kernel_names: tuple[str, ...],
                  engines_per_kernel: int = 4,
                  accelerated: frozenset[str] = frozenset(),
                  filter_width: int = 4,
                  strategy: KernelStrategy = KernelStrategy.HYBRID,
                  isax_style: IsaxStyle = IsaxStyle.MA_STAGE,
                  seed: int = DEFAULT_SEED,
                  length: int | None = None,
                  scenario: "Scenario | str | None" = None,
                  stream: bool = False) -> tuple[SystemResult, int]:
    """Run one FireGuard configuration; returns (result, baseline)."""
    record = default_client().run_one(make_spec(
        benchmark, kernel_names, engines_per_kernel=engines_per_kernel,
        accelerated=accelerated, filter_width=filter_width,
        strategy=strategy, isax_style=isax_style, seed=seed,
        length=length, scenario=scenario, stream=stream))
    return record.result, record.baseline_cycles
