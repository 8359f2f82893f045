"""Functional-unit pool: issue bandwidth and structural hazards."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.isa.opcodes import InstrClass
from repro.utils.stats import Instrumented


@dataclass(frozen=True)
class FuParams:
    """Counts and latencies for one unit type."""

    count: int
    latency: int
    initiation_interval: int = 1  # cycles between issues to one unit

    def __post_init__(self) -> None:
        if self.count <= 0 or self.latency <= 0:
            raise ConfigError("FU count and latency must be positive")
        if self.initiation_interval <= 0:
            raise ConfigError("FU initiation interval must be positive")


class FunctionalUnitPool(Instrumented):
    """Greedy earliest-free unit selection per instruction class."""

    def __init__(self, units: dict[str, FuParams],
                 class_map: dict[InstrClass, str]):
        self._next_free: dict[str, list[int]] = {
            name: [0] * p.count for name, p in units.items()
        }
        # iclass -> (the unit type's next-free cycles, latency,
        # initiation interval); classes sharing a unit type share its
        # list, which reset() clears in place.
        self._by_class = {
            iclass: (self._next_free[name], units[name].latency,
                     units[name].initiation_interval)
            for iclass, name in class_map.items()
        }
        self.stat_structural_waits = 0

    def reset(self) -> None:
        """Free every unit and zero counters (session reset)."""
        for frees in self._next_free.values():
            frees[:] = [0] * len(frees)
        self.reset_stats()

    def acquire(self, iclass: InstrClass,
                earliest: int) -> tuple[int, int]:
        """Claim a unit at or after ``earliest``; return the issue cycle
        and the unit's latency."""
        unit = self._by_class.get(iclass)
        if unit is None:
            raise ConfigError(f"no functional unit mapped for {iclass}")
        frees, latency, interval = unit
        best = 0 if len(frees) == 1 else frees.index(min(frees))
        issue = frees[best]
        if issue > earliest:
            self.stat_structural_waits += issue - earliest
        else:
            issue = earliest
        frees[best] = issue + interval
        return issue, latency
