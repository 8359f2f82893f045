"""The service-grade execution client.

`Client` is the single entry point every harness, benchmark and
example submits work through.  ``submit`` returns a future-like
:class:`RunHandle` immediately, ``map`` streams records back in
submission order as they complete, and ``as_completed`` yields
handles in completion order — a figure harness can render rows
while the tail of its grid is still simulating.

Results are remembered at three levels, checked in order:

1. the in-memory record cache (one process, ``cache=True``);
2. the persistent :class:`~repro.service.store.ResultStore`
   (cross-process, cross-session; ``REPRO_RESULT_STORE``);
3. in-flight deduplication — a key already submitted but not yet
   finished shares its future instead of re-simulating.

Only a miss at all three dispatches a simulation, onto one of two
backends: a single background thread (``workers <= 1``, shares the
per-process build/trace caches in :mod:`repro.runner.worker`) or a
``ProcessPoolExecutor`` (``workers > 1``), which groups same-system
specs into chunks so each worker pays every expensive system build
once.  Records are bit-identical across backends, worker counts and
store round-trips — the differential tests in
``tests/test_service_client.py`` hold that line.

Cancellation is cooperative: ``RunHandle.cancel`` withdraws a run that
has not started, and asks a running one to stop at its next checkpoint
(trace materialisation, baseline, monitored run — see
:func:`repro.runner.worker.execute_spec`).  Cross-process requests
travel as marker files in a cancel directory (``REPRO_CANCEL_DIR`` or
a per-client temporary directory).  Cancellation state is scoped to
one *dispatch generation* of a key: handles that coalesced onto a
doomed run all observe the cancellation, while a later resubmission of
the same spec gets a fresh generation that the old cancel cannot touch
(and vice versa — the resubmission cannot revive the doomed run).
"""

from __future__ import annotations

import atexit
import concurrent.futures as futures
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ReproError, RunCancelled, StoreError
from repro.runner.spec import RunRecord, RunSpec
from repro.runner.worker import ENV_REQUIRE_HIT, execute_spec
from repro.service.store import ResultStore

__all__ = ["Client", "ClientStats", "RunHandle", "default_client"]

#: Environment variable naming a shared cancellation directory.
ENV_CANCEL_DIR = "REPRO_CANCEL_DIR"


class _CancelToken:
    """Cancellation state for one dispatch generation of one key.

    The executing task closes over its own token, so a cancel always
    reaches exactly the generation it was aimed at: every handle
    coalesced onto that generation observes it, and a later
    resubmission (which gets a new token) is untouched.
    """

    __slots__ = ("requested", "marker")

    def __init__(self, marker: str):
        self.requested = False
        #: Marker-file name for cross-process delivery — generation
        #: scoped, so clearing/creating one generation's marker never
        #: affects another's.
        self.marker = marker


def _env_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (default 1 = in-process)."""
    return int(os.environ.get("REPRO_WORKERS", "1"))


@dataclass
class ClientStats:
    """Where this client's submissions were answered from.

    ``executed`` counts dispatches to a simulation backend — the
    number the warm-store acceptance tests pin at zero; ``coalesced``
    counts submissions that attached to an identical in-flight run.
    """

    submitted: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    coalesced: int = 0
    executed: int = 0
    cancel_requests: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class RunHandle:
    """Future-like view of one submitted spec.

    Handles for duplicate submissions of one key share a single
    underlying future: cancelling one cancels them all.
    """

    __slots__ = ("spec", "key", "source", "_future", "_client")

    def __init__(self, spec: RunSpec, key: str, future: futures.Future,
                 client: "Client", source: str):
        self.spec = spec
        self.key = key
        #: Where the record came from at submit time: ``"memory"``,
        #: ``"store"``, ``"coalesced"`` or ``"executed"``.
        self.source = source
        self._future = future
        self._client = client

    def result(self, timeout: float | None = None) -> RunRecord:
        """Block until the record is available.  Raises
        :class:`~repro.errors.RunCancelled` if the run was cancelled
        (before or during execution)."""
        try:
            return self._future.result(timeout)
        except futures.CancelledError as exc:
            raise RunCancelled(
                f"run {self.key[:12]}… was cancelled before it "
                "started") from exc

    def exception(self, timeout: float | None = None):
        try:
            return self._future.exception(timeout)
        except futures.CancelledError as exc:
            return RunCancelled(str(exc))

    def done(self) -> bool:
        return self._future.done()

    def running(self) -> bool:
        return self._future.running()

    def cancelled(self) -> bool:
        """True once the run is certain to never yield a record."""
        if self._future.cancelled():
            return True
        if self._future.done():
            return isinstance(self._future.exception(), RunCancelled)
        return False

    def cancel(self) -> bool:
        """Withdraw the run if it has not started; otherwise request a
        cooperative stop at its next checkpoint.  Returns False only
        when the record already exists (too late to cancel)."""
        if self._future.done():
            return self.cancelled()
        # Cooperative request first (covers a run that is already
        # executing), then withdraw outright if it never started.
        self._client._request_cancel(self.key)
        self._future.cancel()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.done() else
                 "running" if self.running() else "pending")
        return (f"RunHandle({self.spec.benchmark!r}, "
                f"key={self.key[:12]}…, {state}, {self.source})")


def _execute_chunk(items: list[tuple[RunSpec, str]],
                   store_root: str | None,
                   cancel_dir: str | None) -> list[tuple]:
    """Pool-side unit of work: one same-system group of specs.

    Returns ``("ok", record)`` / ``("cancelled", None)`` per spec so a
    cancellation inside a chunk doesn't poison its siblings.  Each
    worker re-opens the store from its root (read-through catches
    records a sibling worker finished first) and polls the cancel
    directory for each spec's generation-scoped marker file.
    """
    store = ResultStore(store_root) if store_root else False
    out: list[tuple] = []
    for spec, marker_name in items:
        if cancel_dir:
            marker = Path(cancel_dir) / marker_name
            cancel = marker.exists
        else:
            cancel = None
        try:
            out.append(("ok", execute_spec(spec, store=store,
                                           cancel=cancel)))
        except RunCancelled:
            out.append(("cancelled", None))
    return out


class Client:
    """Submission front end over the execution backends.

    ``workers`` — None reads ``REPRO_WORKERS`` (default 1).
    ``store`` — None opens ``REPRO_RESULT_STORE`` if set, ``False``
    disables persistence, a path or :class:`ResultStore` uses that
    store.  ``cache`` — keep completed records in memory and answer
    repeat submissions without touching the store.
    """

    def __init__(self, workers: int | None = None,
                 store: "ResultStore | str | Path | bool | None" = None,
                 cache: bool = True):
        self.workers = workers
        if store is None:
            self.store = ResultStore.from_env()
        elif store is False:
            self.store = None
        elif isinstance(store, (str, Path)):
            self.store = ResultStore(store)
        else:
            self.store = store
        self.stats = ClientStats()
        self._cache: dict[str, RunRecord] | None = {} if cache else None
        self._inflight: dict[str, futures.Future] = {}
        self._tokens: dict[str, _CancelToken] = {}
        self._generations: dict[str, int] = {}
        self._lock = threading.RLock()
        self._executor: futures.Executor | None = None
        self._pooled = False
        self._cancel_dir: Path | None = None
        self._own_cancel_dir = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Shut the backend down; pending work is cancelled when
        ``wait`` is False."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
            inflight = list(self._inflight.values())
            if not wait:
                # Ask running work to stop at its next checkpoint and
                # withdraw anything still queued, so no handle is left
                # waiting on a torn-down backend.
                for token in self._tokens.values():
                    token.requested = True
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)
        if not wait:
            for future in inflight:
                future.cancel()
        if self._own_cancel_dir and self._cancel_dir is not None:
            shutil.rmtree(self._cancel_dir, ignore_errors=True)
            self._cancel_dir = None

    def _resolved_workers(self) -> int:
        workers = self.workers if self.workers is not None \
            else _env_workers()
        return max(1, workers)

    def _ensure_executor(self) -> futures.Executor:
        if self._closed:
            raise ReproError("client is closed")
        if self._executor is None:
            workers = self._resolved_workers()
            if workers <= 1:
                # One background thread: submissions return instantly,
                # execution shares this process's worker caches and
                # stays strictly in submission order.
                self._executor = futures.ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-client")
                self._pooled = False
            else:
                self._executor = futures.ProcessPoolExecutor(
                    max_workers=workers)
                self._pooled = True
                configured = os.environ.get(ENV_CANCEL_DIR)
                if configured:
                    self._cancel_dir = Path(configured)
                    self._cancel_dir.mkdir(parents=True, exist_ok=True)
                else:
                    self._cancel_dir = Path(
                        tempfile.mkdtemp(prefix="repro-cancel-"))
                    self._own_cancel_dir = True
        return self._executor

    # -- cancellation ------------------------------------------------------
    def _new_token(self, key: str) -> _CancelToken:
        """A fresh cancellation generation for ``key`` (caller holds
        the lock).  The old generation's token — still referenced by
        any task already executing — is deliberately left untouched."""
        generation = self._generations.get(key, 0) + 1
        self._generations[key] = generation
        token = _CancelToken(marker=f"{key}.g{generation}")
        self._tokens[key] = token
        return token

    def _request_cancel(self, key: str) -> None:
        with self._lock:
            self.stats.cancel_requests += 1
            token = self._tokens.get(key)
            if token is not None:
                token.requested = True
            cancel_dir = self._cancel_dir
        if token is not None and cancel_dir is not None:
            try:
                (cancel_dir / token.marker).touch()
            except OSError:  # pragma: no cover - cancel is best-effort
                pass

    # -- submission --------------------------------------------------------
    def submit(self, spec: RunSpec) -> RunHandle:
        """Submit one spec; returns immediately with a handle."""
        return self._submit_batch([spec])[0]

    def submit_many(self, specs: Sequence[RunSpec]) -> list[RunHandle]:
        """Submit a batch; uncached specs are grouped by system
        configuration before fanning out (build-once/run-many on the
        pool backend)."""
        return self._submit_batch(list(specs))

    def map(self, specs: Iterable[RunSpec]) -> Iterator[RunRecord]:
        """Submit ``specs`` and stream their records back in
        submission order, each yielded as soon as it (and every
        earlier one) is complete."""
        handles = self._submit_batch(list(specs))
        for handle in handles:
            yield handle.result()

    def as_completed(self, specs: Iterable[RunSpec],
                     timeout: float | None = None,
                     ) -> Iterator[RunHandle]:
        """Submit ``specs`` and yield handles in completion order —
        the incremental-streaming primitive."""
        handles = self._submit_batch(list(specs))
        by_future: dict[futures.Future, list[RunHandle]] = {}
        for handle in handles:
            by_future.setdefault(handle._future, []).append(handle)
        for future in futures.as_completed(by_future, timeout=timeout):
            yield from by_future[future]

    def run(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        """Submit and gather a whole batch; records come back in
        submission order."""
        return [handle.result()
                for handle in self._submit_batch(list(specs))]

    def run_one(self, spec: RunSpec) -> RunRecord:
        return self.submit(spec).result()

    # -- internals ---------------------------------------------------------
    def _done_future(self, record: RunRecord) -> futures.Future:
        future: futures.Future = futures.Future()
        future.set_result(record)
        return future

    def _on_spec_done(self, key: str, future: futures.Future) -> None:
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]
                # Retire this generation's token; a resubmission may
                # already have installed a newer one, which the
                # identity guard above leaves in place.
                self._tokens.pop(key, None)
            if (self._cache is not None and not future.cancelled()
                    and future.exception() is None):
                self._cache[key] = future.result()

    def _submit_batch(self, specs: list[RunSpec]) -> list[RunHandle]:
        with self._lock:
            handles: list[RunHandle | None] = [None] * len(specs)
            pending: list[tuple[int, str, RunSpec]] = []
            batch_futures: dict[str, futures.Future] = {}
            for index, spec in enumerate(specs):
                key = spec.cache_key()
                self.stats.submitted += 1
                record = None if self._cache is None \
                    else self._cache.get(key)
                if record is not None:
                    self.stats.memory_hits += 1
                    handles[index] = RunHandle(
                        spec, key, self._done_future(record), self,
                        "memory")
                    continue
                shared = batch_futures.get(key) \
                    or self._inflight.get(key)
                token = self._tokens.get(key)
                if shared is not None and not shared.cancelled() \
                        and not (token is not None and token.requested):
                    # A cancel-requested in-flight run is doomed:
                    # don't attach new handles to it.
                    self.stats.coalesced += 1
                    handles[index] = RunHandle(spec, key, shared, self,
                                               "coalesced")
                    continue
                if self.store is not None:
                    record = self.store.get(key)
                    if record is not None:
                        if self._cache is not None:
                            self._cache[key] = record
                        self.stats.store_hits += 1
                        handles[index] = RunHandle(
                            spec, key, self._done_future(record), self,
                            "store")
                        continue
                future = futures.Future()
                batch_futures[key] = future
                pending.append((index, key, spec))
                handles[index] = RunHandle(spec, key, future, self,
                                           "executed")

            if pending and os.environ.get(ENV_REQUIRE_HIT) == "1":
                missed = ", ".join(
                    f"{key[:12]}… ({spec.benchmark!r})"
                    for _, key, spec in pending[:4])
                raise StoreError(
                    f"{ENV_REQUIRE_HIT}=1 but {len(pending)} spec(s) "
                    f"missed the result store: {missed}")
            if pending:
                self._dispatch(pending, batch_futures)
            return handles  # type: ignore[return-value]

    def _dispatch(self, pending: list[tuple[int, str, RunSpec]],
                  batch_futures: dict[str, futures.Future]) -> None:
        """Send uncached specs to the backend (caller holds the
        lock)."""
        self.stats.executed += len(pending)
        tokens: dict[str, _CancelToken] = {}
        for _, key, _spec in pending:
            tokens[key] = self._new_token(key)
            self._inflight[key] = batch_futures[key]
            self._finalize(key, batch_futures[key])

        executor = self._ensure_executor()
        store = self.store if self.store is not None else False
        if not self._pooled:
            for _, key, spec in pending:
                executor.submit(self._run_local, key, spec, store,
                                batch_futures[key], tokens[key])
            return

        # Pool backend: same-system specs grouped into chunks so each
        # worker pays every distinct system build once per chunk.
        ordered = sorted(pending,
                         key=lambda item: repr(item[2].system_key()))
        workers = min(self._resolved_workers(), len(ordered))
        target = max(1, -(-len(ordered) // (workers * 2)))
        store_root = str(self.store.root) \
            if self.store is not None else None
        cancel_dir = str(self._cancel_dir) if self._cancel_dir else None
        start = 0
        groups: list[list[tuple[int, str, RunSpec]]] = []
        for end in range(1, len(ordered) + 1):
            if end == len(ordered) or ordered[end][2].system_key() \
                    != ordered[start][2].system_key():
                group = ordered[start:end]
                groups.extend(group[i:i + target]
                              for i in range(0, len(group), target))
                start = end
        for group in groups:
            # Handle futures go RUNNING at dispatch: from here on the
            # only way to stop a spec is the cooperative marker file
            # the chunk worker polls before (and during) each run.
            for _, key, _spec in group:
                batch_futures[key].set_running_or_notify_cancel()
            chunk_future = executor.submit(
                _execute_chunk,
                [(spec, tokens[key].marker) for _, key, spec in group],
                store_root, cancel_dir)
            slots = [(batch_futures[key], key) for _, key, _ in group]
            chunk_future.add_done_callback(
                lambda done, slots=slots: self._distribute(done, slots))

    def _run_local(self, key: str, spec: RunSpec, store,
                   outer: futures.Future, token: _CancelToken) -> None:
        """Thread-backend unit of work: flips the handle future to
        RUNNING at actual start — so ``cancel()`` genuinely withdraws
        a queued run (this body is skipped) and falls back to the
        cooperative checkpoint flag for a running one.  The flag is
        this dispatch's own token, so a cancel aimed at it can never
        leak into (or be erased by) a resubmission of the same key."""
        if not outer.set_running_or_notify_cancel():
            return  # withdrawn while still queued
        try:
            record = execute_spec(
                spec, store=store,
                cancel=lambda: token.requested)
        except BaseException as exc:
            outer.set_exception(exc)
        else:
            outer.set_result(record)

    def _finalize(self, key: str, future: futures.Future) -> None:
        future.add_done_callback(
            lambda done, key=key: self._on_spec_done(key, done))

    def _distribute(self, chunk_future: futures.Future,
                    slots: list[tuple[futures.Future, str]]) -> None:
        """Fan a finished chunk's payload out to its per-spec futures
        (all RUNNING since dispatch)."""
        if chunk_future.cancelled():  # executor shut down mid-flight
            for future, key in slots:
                if not future.done():
                    future.set_exception(RunCancelled(
                        f"run {key[:12]}… was cancelled with the "
                        "executor"))
            return
        exc = chunk_future.exception()
        payload = None if exc is not None else chunk_future.result()
        for position, (future, key) in enumerate(slots):
            if exc is not None:
                future.set_exception(exc)
                continue
            status, record = payload[position]
            if status == "ok":
                future.set_result(record)
            else:
                future.set_exception(RunCancelled(
                    f"run {key[:12]}… was cancelled in the worker"))


_DEFAULT_CLIENT: Client | None = None


def default_client() -> Client:
    """Process-wide shared client: one memory cache and one store
    connection for every harness, so figures that revisit a
    configuration reuse its record."""
    global _DEFAULT_CLIENT
    if _DEFAULT_CLIENT is None:
        _DEFAULT_CLIENT = Client()
        atexit.register(_DEFAULT_CLIENT.close)
    return _DEFAULT_CLIENT
