"""Unit tests for the OoO core model and its components."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.isa.decode import encode_instr
from repro.isa.opcodes import InstrClass
from repro.ooo.core import CoreResult, MainCore
from repro.ooo.issue import FunctionalUnitPool, FuParams
from repro.ooo.lsq import LoadStoreQueues
from repro.ooo.params import CoreParams
from repro.ooo.prf import PhysicalRegisterFile
from repro.ooo.rob import ReorderBuffer
from repro.trace.generator import generate_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.record import InstrRecord, Trace


def alu_record(seq, dst=5, srcs=(6, 7), pc=0x1000):
    word = encode_instr("add", rd=dst, rs1=srcs[0], rs2=srcs[1])
    return InstrRecord(seq=seq, pc=pc, word=word, opcode=0x33, funct3=0,
                       iclass=InstrClass.INT_ALU, dst=dst, srcs=srcs,
                       result=1)


def make_trace(records):
    return Trace(name="synthetic", seed=0, records=records)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        a, b = alu_record(0), alu_record(1)
        rob.dispatch(a, 5)
        rob.dispatch(b, 3)
        assert rob.commit_head().record is a
        assert rob.commit_head().record is b

    def test_full_and_empty(self):
        rob = ReorderBuffer(2)
        assert rob.empty
        rob.dispatch(alu_record(0), 1)
        rob.dispatch(alu_record(1), 1)
        assert rob.full

    def test_overflow_raises(self):
        rob = ReorderBuffer(1)
        rob.dispatch(alu_record(0), 1)
        with pytest.raises(SimulationError):
            rob.dispatch(alu_record(1), 1)

    def test_commit_empty_raises(self):
        with pytest.raises(SimulationError):
            ReorderBuffer(1).commit_head()

    def test_peak_occupancy(self):
        rob = ReorderBuffer(4)
        rob.dispatch(alu_record(0), 1)
        rob.dispatch(alu_record(1), 1)
        rob.commit_head()
        assert rob.stat_peak_occupancy == 2


class TestLoadStoreQueues:
    def test_load_occupancy(self):
        lsq = LoadStoreQueues(2, 2)
        lsq.dispatch(InstrClass.LOAD)
        lsq.dispatch(InstrClass.LOAD)
        assert not lsq.can_dispatch(InstrClass.LOAD)
        assert lsq.can_dispatch(InstrClass.STORE)
        lsq.commit(InstrClass.LOAD)
        assert lsq.can_dispatch(InstrClass.LOAD)

    def test_non_mem_always_fits(self):
        lsq = LoadStoreQueues(1, 1)
        lsq.dispatch(InstrClass.LOAD)
        lsq.dispatch(InstrClass.STORE)
        assert lsq.can_dispatch(InstrClass.INT_ALU)

    def test_underflow_raises(self):
        with pytest.raises(SimulationError):
            LoadStoreQueues(1, 1).commit(InstrClass.LOAD)


class TestPrf:
    def test_ports_free_without_contention(self):
        prf = PhysicalRegisterFile(read_ports=4)
        assert prf.acquire_read_ports(10, 2) == 10

    def test_port_exhaustion_slips(self):
        prf = PhysicalRegisterFile(read_ports=2)
        assert prf.acquire_read_ports(5, 2) == 5
        assert prf.acquire_read_ports(5, 2) == 6

    def test_preemption_blocks_issue(self):
        prf = PhysicalRegisterFile(read_ports=2)
        prf.preempt_port(7, count=1)
        # Only one port left at cycle 7.
        assert prf.acquire_read_ports(7, 2) == 8
        assert prf.stat_contention_slips >= 1

    def test_zero_count_free(self):
        prf = PhysicalRegisterFile(read_ports=1)
        assert prf.acquire_read_ports(3, 0) == 3

    def test_count_clamped_to_ports(self):
        prf = PhysicalRegisterFile(read_ports=2)
        assert prf.acquire_read_ports(0, 5) == 0


class TestFuPool:
    def _pool(self):
        units = {"alu": FuParams(count=2, latency=1),
                 "div": FuParams(count=1, latency=8,
                                 initiation_interval=8)}
        cmap = {InstrClass.INT_ALU: "alu", InstrClass.INT_DIV: "div"}
        return FunctionalUnitPool(units, cmap)

    def test_parallel_units(self):
        pool = self._pool()
        assert pool.acquire(InstrClass.INT_ALU, 0) == (0, 1)
        assert pool.acquire(InstrClass.INT_ALU, 0) == (0, 1)
        assert pool.acquire(InstrClass.INT_ALU, 0) == (1, 1)  # both busy

    def test_unpipelined_div(self):
        pool = self._pool()
        assert pool.acquire(InstrClass.INT_DIV, 0) == (0, 8)
        assert pool.acquire(InstrClass.INT_DIV, 1) == (8, 8)

    def test_unknown_class_raises(self):
        with pytest.raises(ConfigError):
            self._pool().acquire(InstrClass.FP_ALU, 0)

    def test_latency_lookup(self):
        _, latency = self._pool().acquire(InstrClass.INT_DIV, 0)
        assert latency == 8


class TestMainCore:
    def test_empty_isnt_done_until_begun(self):
        core = MainCore()
        trace = make_trace([alu_record(i) for i in range(10)])
        result = core.run_standalone(trace)
        assert result.committed == 10
        assert core.done

    def test_ipc_bounded_by_width(self):
        records = []
        # Fully independent single-source instructions.
        for i in range(400):
            records.append(alu_record(i, dst=5 + i % 20,
                                      srcs=(8, 9), pc=0x1000 + 4 * i))
        result = MainCore().run_standalone(make_trace(records))
        assert result.ipc <= 4.0
        # The one cold icache fill costs a DRAM round trip on this
        # short trace, so steady-state IPC ~4 shows up as ~1 here.
        assert result.ipc > 0.6

    def test_serial_chain_limits_ipc(self):
        records = []
        for i in range(200):
            # Each instruction depends on the previous one's result.
            records.append(alu_record(i, dst=5, srcs=(5, 5),
                                      pc=0x1000 + 4 * i))
        result = MainCore().run_standalone(make_trace(records))
        assert result.ipc <= 1.05

    def test_deterministic(self):
        trace = generate_trace(PARSEC_PROFILES["ferret"], seed=11,
                               length=3000)
        r1 = MainCore().run_standalone(trace)
        r2 = MainCore().run_standalone(trace)
        assert r1.cycles == r2.cycles
        assert r1.committed == r2.committed

    def test_commit_count_matches_trace(self):
        trace = generate_trace(PARSEC_PROFILES["swaptions"], seed=2,
                               length=2500)
        result = MainCore().run_standalone(trace)
        assert result.committed == len(trace.records)

    def test_observer_backpressure_stalls(self):
        class RejectingObserver:
            lanes = 4

            def __init__(self):
                self.offered = 0
                self.rejections = 50

            def offer(self, record, lane, cycle):
                if self.rejections > 0:
                    self.rejections -= 1
                    return False
                self.offered += 1
                return True

        core = MainCore()
        observer = RejectingObserver()
        core.attach_observer(observer)
        trace = make_trace([alu_record(i) for i in range(40)])
        core.begin(trace)
        cycle = 0
        while not core.done and cycle < 10000:
            core.step(cycle)
            cycle += 1
        assert observer.offered == 40
        assert core.result.stall_backpressure == 50

    def test_narrow_observer_limits_commit_width(self):
        class NarrowObserver:
            lanes = 1

            def offer(self, record, lane, cycle):
                assert lane == 0
                return True

        core = MainCore()
        core.attach_observer(NarrowObserver())
        records = [alu_record(i, dst=5 + i % 20, srcs=(8, 9))
                   for i in range(200)]
        result_narrow_cycles = None
        core.begin(make_trace(records))
        cycle = 0
        while not core.done:
            core.step(cycle)
            cycle += 1
        result_narrow_cycles = core.result.cycles
        # 1-wide commit cannot beat 1 IPC.
        assert result_narrow_cycles >= 200

    def test_attack_commit_times_recorded(self):
        records = [alu_record(i) for i in range(20)]
        records[10].attack_id = 3
        core = MainCore()
        core.begin(make_trace(records), record_commit_times=True)
        cycle = 0
        while not core.done:
            core.step(cycle)
            cycle += 1
        assert 3 in core.result.commit_times

    def test_runaway_raises(self):
        core = MainCore()
        trace = make_trace([alu_record(i) for i in range(100)])
        with pytest.raises(SimulationError):
            core.run_standalone(trace, max_cycles=3)

        # One cold DRAM load: after an icache-miss fetch stall the core
        # only waits for the load (a drain window).  A timeout inside
        # that window stops at max_cycles, not at the window's end.
        load = InstrRecord(
            seq=0, pc=0x1000, word=encode_instr("ld", rd=5, rs1=8),
            opcode=0x03, funct3=3, iclass=InstrClass.LOAD, dst=5,
            srcs=(8,), mem_addr=0x10000, mem_size=8)
        trace = Trace(name="cold-load", seed=5, records=[load])
        probe = MainCore()
        probe.begin(trace)
        probe.step(0)
        fetch_end, _ = probe.stall_window(1)
        drain_end, kind = probe.stall_window(fetch_end)
        assert kind == "drain"
        max_cycles = drain_end - 2
        assert max_cycles > fetch_end
        core = MainCore()
        with pytest.raises(SimulationError,
                           match="trace cold-load, seed 5.*0 of 1"):
            core.run_standalone(trace, max_cycles=max_cycles)
        assert core.result.cycles == max_cycles
        assert core.result.stall_fetch == fetch_end - 1

    def test_mem_instructions_access_hierarchy(self):
        word = encode_instr("ld", rd=5, rs1=8)
        records = [
            InstrRecord(seq=i, pc=0x1000 + 4 * i, word=word, opcode=0x03,
                        funct3=3, iclass=InstrClass.LOAD, dst=5, srcs=(8,),
                        mem_addr=0x10000 + 64 * i, mem_size=8)
            for i in range(32)
        ]
        core = MainCore()
        core.run_standalone(make_trace(records))
        assert core.hierarchy.l1d.stat_misses > 0

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            CoreParams(width=0)
        with pytest.raises(ConfigError):
            CoreParams(prf_read_ports=1)

    def test_result_ipc_zero_before_run(self):
        assert CoreResult(cycles=0, committed=0).ipc == 0.0
