"""Exception hierarchy for the FireGuard reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """A configuration value is missing, out of range, or inconsistent."""


class EncodingError(ReproError):
    """An instruction could not be encoded or decoded."""


class AssemblyError(ReproError):
    """µcore assembly source could not be assembled."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class QueueError(ReproError):
    """Illegal operation on a hardware queue (e.g. pop from empty)."""


class TraceError(ReproError):
    """A workload trace is malformed or cannot be generated."""


class KernelError(ReproError):
    """A guardian kernel was misconfigured or misbehaved."""


class StoreError(ReproError):
    """A persistent result-store entry is unusable or required but
    missing (see :mod:`repro.service.store`)."""


class RunCancelled(ReproError):
    """A submitted run was cancelled before it produced a record."""

