"""Small statistics helpers used by the experiment harnesses.

The paper reports geometric-mean slowdowns (Figs 7, 9, 10, 11) and
latency distributions (Fig 8); these helpers compute both with the
standard library alone.

This module also defines :class:`Instrumented`, the uniform counter
protocol every simulated component implements (DESIGN.md): counters
live in ``stat_*`` attributes, ``stats()`` exposes them as a dict, and
``reset_stats()`` zeroes them between runs.  The session and the
per-domain event schedulers (:mod:`repro.sched`) report their
skip/fast-forward counters (``low_cycles_skipped``,
``high_cycles_fastforwarded``, ``sched_low_*``/``sched_high_*``)
through the same protocol — see EXPERIMENTS.md for the inventory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ReproError


class Instrumented:
    """Uniform statistics protocol for simulated components.

    A component declares its counters as instance attributes named
    ``stat_<counter>``.  ``stats()`` returns them keyed without the
    prefix, so callers never reach into individual attributes, and
    ``reset_stats()`` zeroes every counter in place (the
    :class:`~repro.sim.session.SimulationSession` calls it from
    ``reset()``).
    """

    STAT_PREFIX = "stat_"

    def stats(self) -> dict[str, int]:
        """All ``stat_*`` counters, keyed without the prefix."""
        prefix = self.STAT_PREFIX
        return {name[len(prefix):]: value
                for name, value in vars(self).items()
                if name.startswith(prefix)}

    def reset_stats(self) -> None:
        """Zero every ``stat_*`` counter in place."""
        for name in vars(self):
            if name.startswith(self.STAT_PREFIX):
                setattr(self, name, 0)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    Raises :class:`ReproError` for empty input or non-positive entries,
    because a silent 0/negative would corrupt slowdown summaries.
    """
    vals = list(values)
    if not vals:
        raise ReproError("geomean of empty sequence")
    total = 0.0
    for v in vals:
        if v <= 0.0:
            raise ReproError(f"geomean requires positive values, got {v}")
        total += math.log(v)
    return math.exp(total / len(vals))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    vals = list(values)
    if not vals:
        raise ReproError("mean of empty sequence")
    return sum(vals) / len(vals)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in [0, 100]."""
    if not values:
        raise ReproError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ReproError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of detection latencies (Fig 8 box rows)."""

    count: int
    minimum: float
    p25: float
    median: float
    p75: float
    p90: float
    p99: float
    maximum: float

    def as_row(self) -> dict[str, float]:
        return {
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize_latencies(latencies: Sequence[float]) -> LatencySummary:
    """Summarise a latency sample the way Fig 8 plots it."""
    if not latencies:
        raise ReproError("cannot summarise an empty latency sample")
    return LatencySummary(
        count=len(latencies),
        minimum=min(latencies),
        p25=percentile(latencies, 25),
        median=percentile(latencies, 50),
        p75=percentile(latencies, 75),
        p90=percentile(latencies, 90),
        p99=percentile(latencies, 99),
        maximum=max(latencies),
    )
