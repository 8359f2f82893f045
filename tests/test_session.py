"""The simulation-session layer: reset, determinism, idle-skip,
and the uniform stats protocol."""

import pytest

from repro.core.system import FireGuardSystem
from repro.errors import SimulationError
from repro.kernels import make_kernel
from repro.sim import SimulationSession
from repro.trace.generator import generate_trace
from repro.trace.profiles import PARSEC_PROFILES


def trace_for(bench="swaptions", seed=17, length=4000):
    return generate_trace(PARSEC_PROFILES[bench], seed=seed,
                          length=length)


def build(kernel_names=("pmc",), **kwargs):
    return FireGuardSystem([make_kernel(k) for k in kernel_names],
                           **kwargs)


class TestLifecycle:
    def test_session_is_lazily_created_and_shared(self):
        system = build()
        assert system.session() is system.session()

    def test_run_marks_dirty_and_rerun_raises(self):
        session = build().session()
        session.run(trace_for())
        assert session.dirty
        with pytest.raises(SimulationError):
            session.run(trace_for())

    def test_reset_clears_dirty(self):
        session = build().session()
        session.run(trace_for())
        session.reset()
        assert not session.dirty
        session.run(trace_for())  # no raise

    def test_system_run_autoresets(self):
        system = build()
        first = system.run(trace_for())
        second = system.run(trace_for())
        assert first == second

    def test_reset_on_clean_session_is_harmless(self):
        system = build()
        session = system.session()
        session.reset()
        assert session.run(trace_for()) == build().run(trace_for())


class TestResetDeterminism:
    def test_reset_matches_fresh_build_same_trace(self):
        trace = trace_for()
        session = build(("asan",)).session()
        first = session.run(trace)
        session.reset()
        again = session.run(trace)
        fresh = build(("asan",)).run(trace)
        assert first == again == fresh

    def test_reset_matches_fresh_build_across_traces(self):
        """One built system runs different workloads; each result
        matches a fresh build's."""
        traces = [trace_for("swaptions"), trace_for("dedup"),
                  trace_for("x264")]
        session = build(("asan", "pmc")).session()
        for trace in traces:
            if session.dirty:
                session.reset()
            reused = session.run(trace)
            fresh = build(("asan", "pmc")).run(trace)
            assert reused == fresh, trace.name

    def test_reset_restores_shadow_state(self):
        """Kernel state in shared memory (shadow stack contents) must
        not leak across reset — detections stay identical."""
        from repro.trace.attacks import AttackKind, inject_attacks

        def attacked():
            trace = trace_for("bodytrack", seed=9, length=6000)
            inject_attacks(trace, AttackKind.RET_HIJACK, 10)
            return trace

        session = build(("shadow_stack",)).session()
        first = session.run(attacked())
        session.reset()
        second = session.run(attacked())
        assert first.detections == second.detections
        assert len(first.detections) > 0

    def test_reset_restores_accelerator_state(self):
        trace = trace_for("swaptions")
        session = build(("shadow_stack",),
                        accelerated={"shadow_stack"}).session()
        first = session.run(trace)
        session.reset()
        assert session.run(trace) == first


class TestIdleSkip:
    def test_ticks_are_skipped_for_blocked_engines(self):
        system = build(("asan",), engines_per_kernel={"asan": 8})
        result = system.run(trace_for())
        skipped = system.session().stats()["engine_ticks_skipped"]
        assert skipped > 0
        assert result.cycles > 0

    def test_dense_skip_does_not_change_results(self, monkeypatch):
        """The dense reference loop's conservative can_skip() is
        result-neutral (the event-driven loop's equivalent guarantee is
        the golden grid in tests/test_golden.py)."""
        trace = trace_for("x264", length=5000)
        with_skip = SimulationSession(build(("asan",)),
                                      dense=True).run(trace)

        from repro.core.accelerator import HardwareAccelerator
        from repro.ucore.core import MicroCore
        monkeypatch.setattr(MicroCore, "can_skip", lambda self: False)
        monkeypatch.setattr(HardwareAccelerator, "can_skip",
                            lambda self: False)
        without_skip = SimulationSession(build(("asan",)),
                                         dense=True).run(trace)
        assert with_skip == without_skip

    def test_event_loop_matches_dense_loop(self):
        trace = trace_for("x264", length=5000)
        event = SimulationSession(build(("asan",)), dense=False).run(trace)
        dense = SimulationSession(build(("asan",)), dense=True).run(trace)
        assert event == dense


class TestStatsProtocol:
    def test_components_expose_uniform_stats(self):
        system = build(("asan",))
        system.run(trace_for())
        assert system.filter.stats()["valid_packets"] > 0
        assert system.cdc.stats()["pushes"] > 0
        assert system.multicast.stats()["delivered"] > 0
        assert "sent" in system.noc.stats()
        ctrl_stats = system.controllers[0].stats()
        assert "input_pushes" in ctrl_stats
        assert "peer_pushes" in ctrl_stats
        assert system.engines[0].stats()["instructions"] > 0
        assert "prf_reads" in system.forwarding.stats()

    def test_reset_stats_zeroes_counters(self):
        system = build(("asan",))
        system.run(trace_for())
        system.filter.reset_stats()
        assert all(v == 0 for v in system.filter.stats().values())

    def test_session_reset_zeroes_component_stats(self):
        system = build(("asan",))
        session = system.session()
        session.run(trace_for())
        session.reset()
        assert all(v == 0 for v in system.filter.stats().values())
        assert all(v == 0 for v in session.stats().values())
        assert all(v == 0
                   for v in system.engines[0].stats().values())
