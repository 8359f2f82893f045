"""Run specs, grids, client caching, parallel determinism."""

import pytest

from repro.core.config import FireGuardConfig
from repro.core.system import FireGuardSystem
from repro.errors import ConfigError
from repro.kernels import make_kernel
from repro.runner import (
    AttackPlan,
    RunSpec,
    execute_spec,
    sweep,
)
from repro.runner import worker as runner_worker
from repro.service import Client
from repro.trace.attacks import AttackKind
from repro.trace.generator import generate_trace
from repro.trace.profiles import PARSEC_PROFILES

LEN = 3000


def spec_for(bench="swaptions", kernels=("pmc",), **kwargs):
    kwargs.setdefault("length", LEN)
    return RunSpec(benchmark=bench, kernels=kernels, **kwargs)


class TestRunSpec:
    def test_requires_kernels_or_software(self):
        with pytest.raises(ConfigError):
            RunSpec(benchmark="swaptions")
        with pytest.raises(ConfigError):
            RunSpec(benchmark="swaptions", kernels=("pmc",),
                    software="asan_aarch64")

    def test_collections_normalised(self):
        spec = RunSpec(benchmark="swaptions", kernels=["pmc"],
                       accelerated={"pmc"})
        assert spec.kernels == ("pmc",)
        assert isinstance(spec.accelerated, frozenset)

    def test_cache_key_stable_and_distinct(self):
        a = spec_for()
        assert a.cache_key() == spec_for().cache_key()
        assert a.cache_key() != spec_for(bench="dedup").cache_key()
        assert a.cache_key() != spec_for(seed=8).cache_key()
        assert a.cache_key() != spec_for(
            config=FireGuardConfig(fifo_depth=8)).cache_key()

    def test_system_key_ignores_workload(self):
        a = spec_for(bench="swaptions")
        b = spec_for(bench="dedup", seed=99)
        assert a.system_key() == b.system_key()

    def test_sweep_grid(self):
        specs = sweep(("swaptions", "dedup"),
                      kernels=[("pmc",), ("asan",)],
                      engines_per_kernel=[2, 4],
                      length=LEN)
        assert len(specs) == 8
        assert len({s.cache_key() for s in specs}) == 8
        # Benchmark is the outermost axis.
        assert [s.benchmark for s in specs[:4]] == ["swaptions"] * 4

    def test_sweep_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            sweep(("swaptions",), kernels=("pmc",), nonsense=[1, 2])

    def test_unknown_names_fail_at_construction(self):
        """Satellite: bad names raise a ConfigError naming the field
        at RunSpec construction, not mid-sweep inside a worker."""
        with pytest.raises(ConfigError, match="RunSpec.benchmark"):
            RunSpec(benchmark="nope", kernels=("pmc",))
        with pytest.raises(ConfigError, match="RunSpec.kernels"):
            RunSpec(benchmark="swaptions", kernels=("nope",))
        with pytest.raises(ConfigError, match="RunSpec.software"):
            RunSpec(benchmark="swaptions", software="nope")
        with pytest.raises(ConfigError, match="RunSpec.scenario"):
            RunSpec(benchmark="swaptions", kernels=("pmc",),
                    scenario="nope")

    def test_scenario_label_benchmark_is_allowed(self):
        # With a scenario the benchmark only labels the row.
        spec = RunSpec(benchmark="my-label", kernels=("pmc",),
                       scenario="boot-then-serve")
        assert spec.benchmark == "my-label"

    def test_stream_software_conflict_names_fields(self):
        with pytest.raises(ConfigError, match="stream"):
            RunSpec(benchmark="swaptions", software="asan_aarch64",
                    stream=True)


class TestExecution:
    def test_matches_direct_system_run(self):
        record = execute_spec(spec_for())
        trace = generate_trace(PARSEC_PROFILES["swaptions"], seed=7,
                               length=LEN)
        direct = FireGuardSystem(
            [make_kernel("pmc")],
            engines_per_kernel={"pmc": 4}).run(trace)
        assert record.result == direct
        assert record.slowdown >= 1.0

    def test_worker_reuses_sessions(self):
        runner_worker.clear_caches()
        execute_spec(spec_for(bench="swaptions"))
        execute_spec(spec_for(bench="dedup"))
        assert len(runner_worker._SESSIONS) == 1
        session = next(iter(runner_worker._SESSIONS.values()))
        assert session.runs_completed == 2

    def test_attack_plan_executes(self):
        record = execute_spec(spec_for(
            kernels=("shadow_stack",), need_baseline=False,
            attacks=AttackPlan(AttackKind.RET_HIJACK, 10)))
        assert record.injected_attacks == 10
        assert record.detected_attacks > 0
        with pytest.raises(ConfigError):
            record.slowdown  # no baseline was computed

    def test_software_scheme_executes(self):
        record = execute_spec(RunSpec(
            benchmark="swaptions", software="asan_aarch64", length=LEN))
        assert record.slowdown > 1.2


class TestRunnerCache:
    def test_records_memoised(self):
        with Client(workers=1) as client:
            spec = spec_for()
            first = client.run_one(spec)
            assert client.run_one(spec) is first

    def test_duplicates_in_batch_run_once(self):
        with Client(workers=1, cache=False) as client:
            records = client.run([spec_for(), spec_for()])
        assert records[0].result == records[1].result

    def test_order_preserved(self):
        specs = sweep(("swaptions", "dedup"), kernels=("pmc",),
                      length=LEN)
        with Client(workers=1) as client:
            records = client.run(specs)
        assert [r.spec.benchmark for r in records] \
            == [s.benchmark for s in specs]


class TestDeterminism:
    """Acceptance: for a fixed seed, a reset session and a parallel
    client produce results identical to fresh serial runs — over two
    benchmarks and two kernel sets."""

    BENCHMARKS = ("swaptions", "dedup")
    KERNEL_SETS = (("pmc",), ("asan", "pmc"))

    def _specs(self):
        return [spec_for(bench=bench, kernels=kset)
                for bench in self.BENCHMARKS
                for kset in self.KERNEL_SETS]

    def _fresh_serial(self, spec):
        trace = generate_trace(PARSEC_PROFILES[spec.benchmark],
                               seed=spec.seed, length=LEN)
        system = FireGuardSystem(
            [make_kernel(k) for k in spec.kernels],
            engines_per_kernel={k: spec.engines_per_kernel
                                for k in spec.kernels})
        return system.run(trace)

    def test_session_reset_matches_fresh_serial(self):
        for kset in self.KERNEL_SETS:
            system = FireGuardSystem(
                [make_kernel(k) for k in kset],
                engines_per_kernel={k: 4 for k in kset})
            session = system.session()
            for bench in self.BENCHMARKS:
                if session.dirty:
                    session.reset()
                trace = generate_trace(PARSEC_PROFILES[bench], seed=7,
                                       length=LEN)
                reused = session.run(trace)
                fresh = self._fresh_serial(
                    spec_for(bench=bench, kernels=kset))
                assert reused == fresh, (bench, kset)

    def test_parallel_runner_matches_fresh_serial(self):
        specs = self._specs()
        with Client(workers=2, cache=False) as client:
            records = client.run(specs)
        assert len(records) == len(specs)
        for spec, record in zip(specs, records):
            fresh = self._fresh_serial(spec)
            assert record.result == fresh, \
                (spec.benchmark, spec.kernels)

    def test_parallel_matches_serial_runner(self):
        specs = self._specs()
        with Client(workers=1, cache=False) as client:
            serial = client.run(specs)
        with Client(workers=2, cache=False) as client:
            parallel = client.run(specs)
        for a, b in zip(serial, parallel):
            assert a.result == b.result
            assert a.baseline_cycles == b.baseline_cycles
