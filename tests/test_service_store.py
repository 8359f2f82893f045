"""The persistent ResultStore: atomicity, robustness, warm hits."""

import json
import threading
import warnings

import pytest

from repro.errors import StoreError
from repro.runner import RunSpec
from repro.runner import worker as runner_worker
from repro.service import SCHEMA_VERSION, Client, ResultStore, StoreWarning
from test_service_serialization import rich_record

LEN = 1500


def small_specs():
    return [RunSpec(benchmark=bench, kernels=kernels, length=LEN)
            for bench in ("swaptions", "dedup")
            for kernels in (("pmc",), ("asan",))]


class TestBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        assert store.get(key) is None
        store.put(key, record)
        assert key in store
        assert store.get(key) == record
        assert list(store.keys()) == [key]
        assert len(store) == 1

    def test_illegal_keys_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../escape", "a/b", "dot.dot"):
            with pytest.raises(StoreError):
                store.path_for(bad)

    def test_empty_store_is_truthy(self, tmp_path):
        # Regression: `store or None` must never drop an empty store.
        assert bool(ResultStore(tmp_path))


class TestRobustness:
    def _stored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        store.put(key, record)
        return store, record, key

    def test_corrupted_entry_quarantined_with_warning(self, tmp_path):
        store, record, key = self._stored(tmp_path)
        store.path_for(key).write_bytes(b"\x00garbage\xff")
        with pytest.warns(StoreWarning, match="quarantined"):
            assert store.get(key) is None
        # Entry is out of the way, and a re-run can re-store cleanly.
        assert key not in store
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        store.put(key, record)
        assert store.get(key) == record

    def test_truncated_entry_quarantined(self, tmp_path):
        store, record, key = self._stored(tmp_path)
        data = store.path_for(key).read_bytes()
        store.path_for(key).write_bytes(data[:len(data) // 2])
        with pytest.warns(StoreWarning):
            assert store.get(key) is None
        assert store.quarantined == 1

    def test_wrong_key_content_quarantined(self, tmp_path):
        store, record, key = self._stored(tmp_path)
        other = "0" * 64
        store.path_for(key).replace(store.path_for(other))
        with pytest.warns(StoreWarning):
            assert store.get(other) is None

    def test_schema_mismatch_is_silent_miss_not_quarantine(
            self, tmp_path):
        store, record, key = self._stored(tmp_path)
        payload = json.loads(store.path_for(key).read_bytes())
        payload["schema"] = SCHEMA_VERSION + 7
        store.path_for(key).write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(key) is None
        assert store.schema_misses == 1
        # The stale entry is left in place and overwritten by a
        # current-schema re-store.
        assert store.path_for(key).exists()
        store.put(key, record)
        assert store.get(key) == record

    def test_concurrent_writers_one_key(self, tmp_path):
        """Racing writers on one key never leave a torn entry."""
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        barrier = threading.Barrier(8)
        errors = []

        def write():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    ResultStore(store.root).put(key, record)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no quarantine happened
            assert store.get(key) == record
        # No stray temp files left behind.
        assert [p.name for p in store.root.iterdir()
                if p.name.startswith(".tmp-")] == []


class TestCrossProcessWarmHit:
    def test_workers_2_second_client_simulates_nothing(
            self, tmp_path, monkeypatch):
        """The cross-host recipe on one machine: two 2-worker clients
        run disjoint halves of a grid concurrently into one store; a
        fresh client under REPRO_REQUIRE_STORE_HIT=1 then assembles
        the whole grid from disk (zero dispatches), bit-identically."""
        specs = small_specs()
        halves = (specs[:len(specs) // 2], specs[len(specs) // 2:])
        store_dir = tmp_path / "store"
        runner_worker.clear_caches()
        with Client(workers=2, store=store_dir, cache=False) as host_a, \
                Client(workers=2, store=store_dir, cache=False) as host_b:
            handles = (host_a.submit_many(halves[0])
                       + host_b.submit_many(halves[1]))
            first = [handle.result(timeout=300) for handle in handles]
            assert host_a.stats.executed == len(halves[0])
            assert host_b.stats.executed == len(halves[1])
        assert len(ResultStore(store_dir)) == len(specs)

        runner_worker.clear_caches()  # no per-process reuse either
        monkeypatch.setenv("REPRO_REQUIRE_STORE_HIT", "1")
        with Client(workers=2, store=store_dir, cache=False) as warm:
            second = warm.run(specs)
            assert warm.stats.executed == 0
            assert warm.stats.store_hits == len(specs)
        assert second == first

    def test_pool_workers_write_back_reaches_other_clients(
            self, tmp_path):
        """Records simulated inside pool workers are durable: a
        workers=1 client (different process topology) reads them."""
        spec = small_specs()[0]
        store_dir = tmp_path / "store"
        with Client(workers=2, store=store_dir, cache=False) as pool:
            expected = pool.run_one(spec)
        runner_worker.clear_caches()
        with Client(workers=1, store=store_dir, cache=False) as serial:
            assert serial.run_one(spec) == expected
            assert serial.stats.executed == 0
