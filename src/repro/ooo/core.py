"""The main OoO core's cycle-stepped timing model.

This is a trace-driven model of a 4-wide SonicBOOM: instructions are
scheduled at dispatch (completion time = operand readiness + functional
unit + memory latency), held in the ROB, and committed in order up to
the commit width.  The model exists to reproduce the phenomena
FireGuard's evaluation measures:

* commit back-pressure when the event filter's FIFOs fill (§IV-C),
* PRF read-port contention when the forwarding channel preempts a
  port (§III-A),
* front-end redirects from the TAGE/BTB/RAS predictor,
* cache/TLB miss latency through the Table II hierarchy.

A ``CommitObserver`` (FireGuard's frontend) may veto commit in a given
lane — that is exactly the paper's back-pressure mechanism.

The per-cycle commit/dispatch/schedule walk lives in
:mod:`repro.hotpath.ooo_kernel` (DESIGN.md: hotpath layer): this class
owns the flattened run state — ROB rings, LSQ occupancy counters and
the register-ready scoreboard as preallocated arrays — and delegates
:meth:`step` to the kernel's ``core_step``.  The
:class:`~repro.ooo.rob.ReorderBuffer` and
:class:`~repro.ooo.lsq.LoadStoreQueues` classes remain in
:mod:`repro.ooo` as the unit-tested reference structures the rings
flatten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Protocol

from repro.branch.predictor import FrontEndPredictor
from repro.errors import SimulationError
from repro.hotpath import ooo_kernel as _ok
from repro.isa.opcodes import InstrClass
from repro.mem.hierarchy import MemoryHierarchy
from repro.ooo.issue import FunctionalUnitPool, FuParams
from repro.ooo.params import CoreParams
from repro.ooo.prf import PhysicalRegisterFile
from repro.trace.record import InstrRecord, Trace

#: Architectural register space preallocated in the ready scoreboard
#: (grown on demand by the kernel for out-of-range trace registers).
_REG_SPACE = 64


class CommitObserver(Protocol):
    """FireGuard's hook into the commit stage."""

    def offer(self, record: InstrRecord, lane: int, cycle: int) -> bool:
        """Observe a committing instruction.  Returning False stalls
        commit (the filter FIFO for this lane is full)."""
        ...

    @property
    def lanes(self) -> int:
        """Number of commit lanes the observer can watch per cycle
        (the event-filter width; Fig 9 sweeps 1/2/4)."""
        ...


@dataclass
class CoreResult:
    """Timing outcome of one run."""

    cycles: int
    committed: int
    stall_backpressure: int = 0
    stall_rob_full: int = 0
    stall_lsq_full: int = 0
    stall_fetch: int = 0
    stall_fetch_redirect: int = 0
    stall_fetch_icache: int = 0
    mispredicts: int = 0
    commit_times: dict[int, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class MainCore:
    """Cycle-stepped trace-driven OoO core."""

    _LINE_SHIFT = _ok.LINE_SHIFT

    def __init__(self, params: CoreParams | None = None,
                 hierarchy: MemoryHierarchy | None = None,
                 predictor: FrontEndPredictor | None = None):
        self.params = params or CoreParams()
        self.hierarchy = hierarchy or MemoryHierarchy(self.params.hierarchy)
        self.predictor = predictor or FrontEndPredictor(self.params.predictor)
        self.prf = PhysicalRegisterFile(self.params.prf_read_ports,
                                        self.params.phys_regs)
        self.fu_pool = self._build_fu_pool()
        self._observer: CommitObserver | None = None

        self._trace: list[InstrRecord] = []
        p = self.params
        st = [0] * _ok.ST_LEN
        st[_ok.LAST_FETCH_LINE] = -1
        st[_ok.ROB_CAP] = p.rob_entries
        st[_ok.LDQ_CAP] = p.ldq_entries
        st[_ok.STQ_CAP] = p.stq_entries
        st[_ok.WIDTH] = p.width
        st[_ok.REDIRECT_PENALTY] = p.redirect_penalty
        st[_ok.LAT_STORE] = p.lat_store
        st[_ok.L2_HIT] = self.hierarchy.params.l2.hit_latency
        st[_ok.L1I_HIT] = self.hierarchy.params.l1i.hit_latency
        self._st = st
        self._rob_rec: list = [None] * p.rob_entries
        self._rob_done: list[int] = [0] * p.rob_entries
        self._reg_ready: list[int] = [0] * _REG_SPACE
        self.result = CoreResult(cycles=0, committed=0)
        self._step = _ok.core_step

    def reset(self) -> None:
        """Return the core to its just-constructed state: cold caches
        and TLBs, untrained predictor, empty queues and run state.

        ``begin`` resets only the per-run bookkeeping (so warm-up can
        be shared); ``reset`` is the stronger guarantee the simulation
        session needs to make a reused core bit-identical to a fresh
        one."""
        self.hierarchy.reset()
        self.predictor.reset()
        self.prf.reset()
        self.fu_pool.reset()
        self._observer = None
        self._trace = []
        self._clear_run_state()

    def _clear_run_state(self) -> None:
        st = self._st
        st[_ok.NEXT_DISPATCH] = 0
        st[_ok.FETCH_STALL_UNTIL] = 0
        st[_ok.LAST_FETCH_LINE] = -1
        st[_ok.IN_FLIGHT] = 0
        st[_ok.STALL_REDIRECT] = 0
        st[_ok.ROB_HEAD] = 0
        st[_ok.ROB_COUNT] = 0
        st[_ok.LDQ_COUNT] = 0
        st[_ok.STQ_COUNT] = 0
        st[_ok.RECORD_TIMES] = 0
        st[_ok.TRACE_LEN] = 0
        rob_rec = self._rob_rec
        for index in range(len(rob_rec)):
            rob_rec[index] = None
        self._reg_ready = [0] * _REG_SPACE
        self.result = CoreResult(cycles=0, committed=0)

    def _build_fu_pool(self) -> FunctionalUnitPool:
        p = self.params
        units = {
            "int": FuParams(count=p.n_int_alu, latency=p.lat_int_alu),
            "fp": FuParams(count=p.n_fp_muldiv, latency=p.lat_fp),
            "mul": FuParams(count=p.n_fp_muldiv, latency=p.lat_mul),
            "div": FuParams(count=p.n_fp_muldiv, latency=p.lat_div,
                            initiation_interval=p.lat_div),
            "mem": FuParams(count=p.n_mem, latency=1),
            "jump": FuParams(count=p.n_jump, latency=p.lat_jump),
            "csr": FuParams(count=p.n_csr, latency=p.lat_csr),
        }
        class_map = {
            InstrClass.INT_ALU: "int",
            InstrClass.INT_MUL: "mul",
            InstrClass.INT_DIV: "div",
            InstrClass.FP_ALU: "fp",
            InstrClass.LOAD: "mem",
            InstrClass.STORE: "mem",
            InstrClass.BRANCH: "jump",
            InstrClass.JUMP: "jump",
            InstrClass.CALL: "jump",
            InstrClass.RET: "jump",
            InstrClass.CSR: "csr",
            InstrClass.FENCE: "int",
            InstrClass.CUSTOM: "int",
            InstrClass.SYSTEM: "csr",
        }
        return FunctionalUnitPool(units, class_map)

    # -- wiring ---------------------------------------------------------
    def attach_observer(self, observer: CommitObserver) -> None:
        """Attach FireGuard's commit-stage observer."""
        self._observer = observer

    # -- run control ------------------------------------------------------
    DEFAULT_WARMUP = 4000

    def begin(self, trace: "Trace", record_commit_times: bool = False,
              warmup_records: int | None = None) -> None:
        """Reset run state and start consuming ``trace``.

        ``trace`` is any trace source implementing the record protocol
        (``len()``, ``iter_records()``, ``record_view()``, region
        metadata) — an in-memory :class:`Trace` or an on-disk
        :class:`~repro.trace.stream.StreamedTrace`, which serves both
        passes below from bounded-memory chunks.

        A warm-up pass first touches the caches, TLBs and branch
        predictor with a prefix of the trace (functional only, no
        timing): short traces otherwise measure compulsory misses
        instead of steady state.  Baseline and monitored runs warm
        identically, so slowdown ratios are unaffected.
        """
        if warmup_records is None:
            warmup_records = min(self.DEFAULT_WARMUP, len(trace) // 2)
        self._warm_up(trace, warmup_records)
        self._trace = trace.record_view()
        self._clear_run_state()
        st = self._st
        st[_ok.TRACE_LEN] = len(self._trace)
        st[_ok.RECORD_TIMES] = 1 if record_commit_times else 0

    def _warm_up(self, trace: "Trace", count: int) -> None:
        last_line = -1
        for record in islice(trace.iter_records(), count):
            line = record.pc >> self._LINE_SHIFT
            if line != last_line:
                self.hierarchy.access_instr(record.pc, 0)
                last_line = line
            if record.mem_addr is not None:
                self.hierarchy.access_data(record.mem_addr, 0)
            if record.is_ctrl:
                self.predictor.predict_and_train(
                    record.iclass, record.pc, record.taken, record.target)
        # The structurally warm set is L2/LLC-resident at steady state;
        # fill those levels (not the L1 — it holds only the hot set).
        if trace.warm_end > trace.global_base:
            addr = trace.global_base
            while addr < trace.warm_end:
                self.hierarchy.l2.prefill(addr)
                self.hierarchy.llc.prefill(addr)
                addr += 64

    @property
    def done(self) -> bool:
        st = self._st
        return (st[_ok.NEXT_DISPATCH] >= st[_ok.TRACE_LEN]
                and st[_ok.ROB_COUNT] == 0)

    def quiescent_at(self, cycle: int) -> bool:
        """True when ``step(cycle)`` would be a provable no-op beyond
        the cycle counter: the trace is consumed, the ROB is empty, and
        no fetch-stall window is still charging front-end stall
        statistics.  The event-driven session fast-forwards only past
        quiescent cycles, so even per-cycle stall counters stay
        bit-identical to the dense loop."""
        return self.done and cycle >= self._st[_ok.FETCH_STALL_UNTIL]

    def step(self, cycle: int) -> None:
        """Advance one core cycle: commit, then dispatch."""
        self._step(self, self._st, self._rob_rec, self._rob_done,
                   self._reg_ready, self._trace, cycle)

    # -- stall fast-forward ----------------------------------------------
    def stall_window(self, cycle: int) -> tuple[int, str] | None:
        """The provable counter-only stall window starting at ``cycle``.

        Returns ``(until, kind)`` when every cycle in
        ``[cycle, until)`` would execute as pure stall accounting —
        nothing commits (the ROB head completes at or after ``until``)
        and nothing dispatches (front-end stall, exhausted trace, full
        ROB, or a blocked LSQ, in the kernel dispatch priority order) —
        or ``None`` when the next cycle does real work.  The session
        batches such windows with :meth:`skip_stalls` instead of
        stepping them; the stall cause cannot change mid-window because
        only commit and dispatch mutate it, and neither runs.
        Windows of fewer than two cycles are not worth the bookkeeping
        and report ``None``.
        """
        st = self._st
        rob_count = st[_ok.ROB_COUNT]
        head_done = (self._rob_done[st[_ok.ROB_HEAD]]
                     if rob_count else None)
        if head_done is not None and head_done <= cycle:
            return None  # the head commits this cycle
        until = st[_ok.FETCH_STALL_UNTIL]
        if cycle < until:
            if head_done is not None and head_done < until:
                until = head_done
            kind = ("fetch-redirect" if st[_ok.STALL_REDIRECT]
                    else "fetch-icache")
        elif st[_ok.NEXT_DISPATCH] >= st[_ok.TRACE_LEN]:
            if head_done is None:
                return None  # fully drained: the quiescent path owns it
            until, kind = head_done, "drain"
        elif rob_count == st[_ok.ROB_CAP]:
            until, kind = head_done, "rob"
        elif not self._lsq_can_dispatch(
                self._trace[st[_ok.NEXT_DISPATCH]].iclass):
            if head_done is None:
                return None
            until, kind = head_done, "lsq"
        else:
            return None
        if until <= cycle + 1:
            return None
        return until, kind

    def _lsq_can_dispatch(self, iclass: InstrClass) -> bool:
        st = self._st
        if iclass is InstrClass.LOAD:
            return st[_ok.LDQ_COUNT] < st[_ok.LDQ_CAP]
        if iclass is InstrClass.STORE:
            return st[_ok.STQ_COUNT] < st[_ok.STQ_CAP]
        return True

    def skip_stalls(self, cycle: int, target: int, kind: str) -> None:
        """Account ``target - cycle`` stall cycles in one batch —
        exactly the counters ``step`` would have incremented over the
        window :meth:`stall_window` reported."""
        delta = target - cycle
        result = self.result
        if kind == "fetch-redirect":
            result.stall_fetch += delta
            result.stall_fetch_redirect += delta
        elif kind == "fetch-icache":
            result.stall_fetch += delta
            result.stall_fetch_icache += delta
        elif kind == "rob":
            result.stall_rob_full += delta
        elif kind == "lsq":
            result.stall_lsq_full += delta
        # "drain" charges nothing: an exhausted trace leaves dispatch
        # silent while the ROB empties.
        result.cycles = target

    def run_standalone(self, trace: Trace,
                       max_cycles: int = 50_000_000) -> CoreResult:
        """Run a trace to completion without FireGuard attached.

        Provable stall windows (:meth:`stall_window`) are accounted in
        one batch instead of stepped, clamped at ``max_cycles``: the
        counters match a cycle-by-cycle run exactly, including on a
        timeout."""
        self.begin(trace)
        cycle = 0
        while not self.done:
            if cycle >= max_cycles:
                raise SimulationError(
                    f"core did not finish within {max_cycles} cycles "
                    f"(trace {trace.name}, seed {trace.seed}): committed "
                    f"{self.result.committed} of {len(trace)} records")
            window = self.stall_window(cycle)
            if window is not None:
                until = min(window[0], max_cycles)
                self.skip_stalls(cycle, until, window[1])
                cycle = until
                continue
            self.step(cycle)
            cycle += 1
        return self.result
