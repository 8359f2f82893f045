"""Persistent, content-addressed result store.

One directory, one JSON document per executed spec, filed under the
spec's deterministic ``cache_key()``.  Point ``REPRO_RESULT_STORE`` at
a directory and every process — workers in a pool, successive CI jobs,
figure harnesses run weeks apart — shares one memo table: a warm rerun
of a whole figure grid loads records instead of simulating.

Concurrency and failure model:

* **Writers never collide.**  Each ``put`` writes to a process-unique
  temporary file in the store directory and ``os.replace``-s it over
  the final name — atomic on POSIX and Windows.  Two workers racing on
  one key both write the same canonical bytes (the codec is
  deterministic), so either winner is correct and readers never see a
  partial document.
* **Corruption is quarantined, not fatal.**  A truncated or mangled
  entry (killed writer on a non-atomic filesystem, disk trouble,
  manual editing) is moved aside into ``quarantine/`` with a
  :class:`StoreWarning`, and the lookup reports a miss — the run is
  simply re-simulated and re-stored.
* **Old schemas force re-runs.**  An entry stamped with a different
  :data:`~repro.service.serialization.SCHEMA_VERSION` is left in place
  but reported as a miss; the subsequent ``put`` overwrites it with a
  current document.
"""

from __future__ import annotations

import itertools
import os
import warnings
from pathlib import Path
from typing import Iterator

from repro.errors import StoreError
from repro.runner.spec import RunRecord
from repro.service.serialization import (
    SchemaMismatchError,
    dumps_record,
    loads_record,
)

__all__ = ["ENV_RESULT_STORE", "ResultStore", "StoreWarning"]

#: Environment variable naming the store directory.
ENV_RESULT_STORE = "REPRO_RESULT_STORE"

_QUARANTINE = "quarantine"


class StoreWarning(UserWarning):
    """A store entry was unusable and has been quarantined."""


class ResultStore:
    """Filesystem-backed map from cache key to
    :class:`~repro.runner.spec.RunRecord`."""

    _tmp_seq = itertools.count()

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.schema_misses = 0

    @classmethod
    def from_env(cls) -> "ResultStore | None":
        """The store named by ``REPRO_RESULT_STORE``, or None."""
        root = os.environ.get(ENV_RESULT_STORE)
        return cls(root) if root else None

    # -- paths -------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        if not key or any(c in key for c in "/\\."):
            raise StoreError(f"illegal store key {key!r}")
        return self.root / f"{key}.json"

    def _quarantine(self, path: Path, reason: Exception) -> None:
        qdir = self.root / _QUARANTINE
        qdir.mkdir(exist_ok=True)
        target = qdir / f"{path.name}.{os.getpid()}.corrupt"
        try:
            path.replace(target)
        except OSError:
            # A racing reader quarantined it first; nothing to move.
            return
        self.quarantined += 1
        warnings.warn(
            f"result store quarantined corrupted entry {path.name} "
            f"-> {target.relative_to(self.root)}: {reason}",
            StoreWarning, stacklevel=3)

    # -- mapping -----------------------------------------------------------
    def get(self, key: str) -> RunRecord | None:
        """The stored record for ``key``, or None (miss, stale schema,
        or quarantined corruption — never an exception)."""
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            record = loads_record(data, expect_key=key)
        except SchemaMismatchError:
            self.schema_misses += 1
            self.misses += 1
            return None
        except Exception as exc:  # corrupt: quarantine, report a miss
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: RunRecord) -> Path:
        """Persist ``record`` under ``key`` atomically; concurrent
        writers on one key are safe (identical canonical bytes)."""
        path = self.path_for(key)
        payload = dumps_record(record, key=key)
        tmp = self.root / (f".tmp-{os.getpid()}"
                           f"-{next(self._tmp_seq)}-{key[:8]}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        self.writes += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        for path in self.root.glob("*.json"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __bool__(self) -> bool:
        # An empty store is still a store: never let ``len == 0``
        # disable read-through/write-back via truthiness.
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.root)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
