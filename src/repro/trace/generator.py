"""Synthetic trace generation from workload profiles.

The generator first lays out *static code* — functions made of fixed
instruction slots, with loop-closing backward branches, biased forward
branches, and fixed call sites — then executes it, drawing data-side
behaviour (addresses, values, allocation events) dynamically.  Static
control structure is what makes the front end behave like real code:
branch sites re-execute, so TAGE/BTB/RAS warm up; loops produce real
instruction-cache locality.

Heap behaviour is tracked with live-object ground truth (for the
ASan/UaF kernels and the attack injector), and calls/returns are
tracked on a real stack (for the shadow stack kernel).

Every record carries a genuine encoded RISC-V word, so the event
filter's SRAM lookup sees exactly the opcode/funct3 indexing the
hardware would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import TraceError
from repro.isa.decode import decode, encode_instr
from repro.isa.opcodes import InstrClass
from repro.trace.profiles import WorkloadProfile
from repro.trace.record import HeapObject, InstrRecord, Trace
from repro.utils.rng import DeterministicRng

CODE_BASE = 0x0000_0000_0001_0000
GLOBAL_BASE = 0x0000_0001_0000_0000
HEAP_BASE = 0x0000_0002_0000_0000
FUNC_BYTES = 1024          # code bytes reserved per function
SLOTS_PER_FUNC = FUNC_BYTES // 4
LINE_BYTES = 64

# Static slot kinds.
_LOAD, _STORE, _BRANCH, _CALL, _FP, _MUL, _DIV, _ALU, _EVENT = range(9)

# Pre-encoded words for the hot paths (encoding is deterministic),
# each with the decoded fields a record carries:
# ``(word, opcode, funct3, iclass)``.
_WORD_CACHE: dict[tuple, tuple[int, int, int, InstrClass]] = {}


def _word(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0,
          imm: int = 0) -> tuple[int, int, int, InstrClass]:
    key = (mnemonic, rd, rs1, rs2, imm)
    cached = _WORD_CACHE.get(key)
    if cached is None:
        word = encode_instr(mnemonic, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
        decoded = decode(word)
        cached = (word, decoded.opcode, decoded.funct3, decoded.iclass)
        _WORD_CACHE[key] = cached
    return cached


@dataclass
class _Slot:
    """One static instruction slot."""

    kind: int
    # Branch slots:
    bias: float = 0.0          # probability taken (forward branches)
    target_slot: int = 0
    trip: int = 0              # >0: loop-closing branch with this trip count
    # Call slots:
    callee: int = 0            # function index
    # Memory slots:
    size: int = 8


class _Function:
    """Static code of one synthetic function."""

    __slots__ = ("index", "base", "slots")

    def __init__(self, index: int, base: int, slots: list[_Slot]):
        self.index = index
        self.base = base
        self.slots = slots


class TraceGenerator:
    """Generates one deterministic workload trace."""

    # x8/x9/x18-x20 are long-lived base registers (array bases, frame
    # pointers): loads index off them without waiting on recent
    # results, which gives real codes their memory-level parallelism.
    # x7 is the loop-counter register: a self-recurring 1-cycle chain
    # that branch conditions read, so branches resolve quickly instead
    # of inheriting load latencies through the dependence frontier.
    _BASE_REGS = (8, 9, 18, 19, 20)
    _COUNTER_REG = 7
    _DST_POOL = tuple(r for r in range(5, 32)
                      if r not in (7, 8, 9, 10, 11, 18, 19, 20))

    def __init__(self, profile: WorkloadProfile, seed: int, length: int,
                 max_live_objects: int = 512,
                 heap_base: int = HEAP_BASE, code_base: int = CODE_BASE):
        if length <= 0:
            raise TraceError(f"trace length must be positive, got {length}")
        self.profile = profile
        self.seed = seed
        self.length = length
        self.max_live_objects = max_live_objects
        # Relocatable regions: the scenario compositor places each
        # phase's heap (and code) in a fresh range so ground truth
        # never aliases across phase boundaries.
        self._heap_base = heap_base
        self._code_base = code_base
        self._rng = DeterministicRng(seed)
        self._code_rng = DeterministicRng(seed).fork(0xC0DE)

        p = profile
        self._num_funcs = max(4, p.code_footprint_kb)
        self._num_lines = max(16, p.working_set_kb * 1024 // LINE_BYTES)
        # Probability a memory access touches the heap rather than globals.
        self._heap_frac = min(0.6, 0.10 + p.alloc_per_kilo / 12.0)
        self._event_prob = p.alloc_per_kilo / 1000.0

        # Static-code weights.  Dynamic branch frequency exceeds the
        # static fraction because loop-closing branches re-execute;
        # the 0.55 factor compensates (validated by the mix tests).
        rest = max(0.02, 1.0 - (p.frac_load + p.frac_store
                                + p.frac_branch + p.frac_call + p.frac_fp
                                + p.frac_mul + p.frac_div))
        self._static_kinds = (_LOAD, _STORE, _BRANCH, _CALL, _FP, _MUL,
                              _DIV, _ALU)
        self._static_weights = (p.frac_load, p.frac_store,
                                p.frac_branch * 0.55, p.frac_call,
                                p.frac_fp, p.frac_mul, p.frac_div, rest)

        self._functions: dict[int, _Function] = {}

        # Dynamic walk state.
        self._func = self._get_function(0)
        self._slot = 0
        self._call_stack: list[tuple[int, int, int]] = []  # (func, slot, pc)
        self._recent_dsts: deque[int | None] = deque([None] * 16, maxlen=16)
        # Registers recently written by short-latency ALU ops: branch
        # operands come from here (loop counters, comparison flags) so
        # branches resolve quickly, as in real code.
        self._recent_alu_dsts: deque[int] = deque([5] * 8, maxlen=8)
        self._dst_counter = 0
        self._heap_cursor = heap_base
        self._live: list[HeapObject] = []
        self._objects: list[HeapObject] = []
        self._loop_state: dict[int, int] = {}  # site pc → trips left
        self._cold_cursor = 0   # streaming-burst state for cold accesses
        self._cold_left = 0
        self._init_stores: list[int] = []  # pending memset of new object
        self._ctrl_events = 0  # dynamic calls+returns emitted so far
        self._site_callees: dict[int, int] = {}  # borrowed-call targets

    # -- static code generation -------------------------------------------
    def _get_function(self, index: int) -> _Function:
        func = self._functions.get(index)
        if func is None:
            func = self._build_function(index)
            self._functions[index] = func
        return func

    def _build_function(self, index: int) -> _Function:
        """Lay out one function's static code.

        Kinds are assigned by weighted round-robin (a low-discrepancy
        draw with a random phase) rather than iid sampling: loop
        bodies dominate execution time, so every short window of slots
        must carry the profile's instruction mix or a single hot loop
        skews the whole trace.
        """
        rng = self._code_rng.fork(index + 1)
        n_slots = rng.randint(48, SLOTS_PER_FUNC - 8)
        total = sum(self._static_weights)
        credits = [rng.random() * 0.5 for _ in self._static_kinds]
        slots: list[_Slot] = []
        for i in range(n_slots):
            for k, weight in enumerate(self._static_weights):
                credits[k] += weight / total
            kind_pos = max(range(len(credits)), key=credits.__getitem__)
            credits[kind_pos] -= 1.0
            kind = self._static_kinds[kind_pos]
            slot = _Slot(kind=kind)
            if kind == _BRANCH:
                self._shape_branch(slot, i, n_slots, rng)
            elif kind == _CALL:
                slot.callee = rng.zipf_index(self._num_funcs, skew=3.0)
            elif kind in (_LOAD, _STORE):
                slot.size = rng.weighted_choice((8, 4, 1), (0.6, 0.3, 0.1))
            slots.append(slot)
        return _Function(index, self._code_base + index * FUNC_BYTES,
                         slots)

    def _shape_branch(self, slot: _Slot, i: int, n_slots: int,
                      rng: DeterministicRng) -> None:
        """Give a branch site static shape: loop-closing, biased skip,
        or data-dependent (hard to predict)."""
        roll = rng.random()
        if roll < 0.30 and i >= 8:
            # Loop-closing backward branch with a bounded trip count:
            # a purely probabilistic loop exit has geometric tails that
            # let one tight loop dominate the whole trace.
            slot.trip = rng.randint(4, 16)
            slot.bias = 1.0 - 1.0 / slot.trip
            slot.target_slot = max(0, i - rng.randint(6, 24))
        elif roll < 0.30 + self.profile.branch_bias * 0.80:
            # Strongly biased forward branch (error checks, guards).
            slot.bias = 0.02 if rng.chance(0.7) else 0.98
            slot.target_slot = min(n_slots - 1, i + rng.randint(2, 12))
        else:
            # Data-dependent branch, mildly skewed.
            slot.bias = 0.12 if rng.chance(0.5) else 0.88
            slot.target_slot = min(n_slots - 1, i + rng.randint(2, 8))

    # -- dynamic helpers ----------------------------------------------------
    def _next_dst(self) -> int:
        self._dst_counter += 1
        return self._DST_POOL[self._dst_counter % len(self._DST_POOL)]

    def _dep_src(self) -> int:
        """Pick a source register with realistic producer distance.

        A third of operands are loop-invariant (immediates folded into
        base registers): without them the dependence DAG degenerates
        into a serial chain and ILP collapses far below real code's.
        """
        if self._rng.chance(0.35):
            return self._rng.choice(self._BASE_REGS)
        p = 1.0 / max(1.0, self.profile.dep_distance)
        distance = self._rng.geometric(p, cap=16)
        reg = self._recent_dsts[-distance]
        if reg is None:
            reg = self._rng.choice(self._BASE_REGS)
        return reg

    def _addr_reg(self) -> int:
        """Address registers are usually loop-invariant bases."""
        if self._rng.chance(0.8):
            return self._rng.choice(self._BASE_REGS)
        return self._dep_src()

    # Hot-set size in cache lines: fits comfortably inside the 32 KB,
    # 512-line L1D together with the stack/heap traffic.  The warm set
    # is sized to be L2-resident (4096 lines = 256 KB).
    _HOT_LINES = 320
    _WARM_LINES = 4096

    def _mem_addr(self) -> int:
        """An address in the heap (live object) or the global region.

        Global accesses follow a three-level locality model: with
        probability ``hot_fraction`` they fall in a small hot set
        (zipf-skewed, L1-resident); most of the remainder touches a
        warm, L2-resident set; the rest strides the full working set —
        the cold tail producing LLC/DRAM traffic.
        """
        if self._live and self._rng.chance(self._heap_frac):
            # Heap accesses favour recently allocated objects (the ones
            # the program is actively working on), giving heap lines
            # the reuse a real allocator's locality would.  Accesses
            # stay within each object's initialised prefix (the memset
            # coverage): programs write buffers before reading them.
            live = self._live
            if len(live) > 12 and self._rng.chance(0.85):
                obj = live[self._rng.randint(len(live) - 12, len(live) - 1)]
            else:
                obj = self._rng.choice(live)
            span = min(obj.size, 32 * LINE_BYTES)
            max_off = max(0, span - 8)
            offset = self._rng.randint(0, max_off // 8) * 8 if max_off else 0
            return obj.base + offset
        if self._cold_left > 0:
            # Continue a cold streaming burst: sequential lines, so
            # the misses overlap in the LDQ/DRAM window (the MLP real
            # streaming code exhibits).
            self._cold_left -= 1
            self._cold_cursor += 1
            line = self._cold_cursor % self._num_lines
        elif self._rng.chance(self.profile.hot_fraction):
            hot = min(self._HOT_LINES, self._num_lines)
            line = self._rng.zipf_index(hot, self.profile.locality_skew)
        elif self._rng.chance(0.95) or not self._rng.chance(1.0 / 6.0):
            # Cold accesses are ~5 % of the non-hot tail, calibrated to
            # PARSEC-like LLC MPKI (~1-3); the second clause keeps the
            # total cold volume constant despite ~6-access bursts.
            line = self._rng.randint(0, min(self._WARM_LINES,
                                            self._num_lines) - 1)
        else:
            line = self._rng.randint(0, self._num_lines - 1)
            self._cold_cursor = line
            self._cold_left = self._rng.randint(3, 8)
        offset = self._rng.randint(0, 6) * 8
        return GLOBAL_BASE + line * LINE_BYTES + offset

    @property
    def _pc(self) -> int:
        return self._func.base + self._slot * 4

    # -- per-kind emitters ----------------------------------------------
    def _emit(self, seq: int, pc: int,
              encoded: tuple[int, int, int, InstrClass],
              iclass: InstrClass | None = None, **fields) -> InstrRecord:
        word, opcode, funct3, decoded_class = encoded
        return InstrRecord(
            seq=seq, pc=pc, word=word, opcode=opcode, funct3=funct3,
            iclass=iclass if iclass is not None else decoded_class,
            **fields)

    def _exec_load(self, seq: int, slot: _Slot) -> InstrRecord:
        dst = self._next_dst()
        addr_reg = self._addr_reg()
        mnemonic = {8: "ld", 4: "lw", 1: "lbu"}[slot.size]
        encoded = _word(mnemonic, rd=dst, rs1=addr_reg, imm=0)
        rec = self._emit(seq, self._pc, encoded, dst=dst, srcs=(addr_reg,),
                         mem_addr=self._mem_addr(), mem_size=slot.size,
                         result=self._rng.next_u64())
        self._recent_dsts.append(dst)
        self._slot += 1
        return rec

    def _exec_store(self, seq: int, slot: _Slot) -> InstrRecord:
        addr_reg = self._addr_reg()
        data_reg = self._dep_src()
        mnemonic = {8: "sd", 4: "sw", 1: "sb"}[slot.size]
        encoded = _word(mnemonic, rs1=addr_reg, rs2=data_reg, imm=0)
        rec = self._emit(seq, self._pc, encoded, srcs=(addr_reg, data_reg),
                         mem_addr=self._mem_addr(), mem_size=slot.size,
                         result=self._rng.next_u64())
        self._recent_dsts.append(None)
        self._slot += 1
        return rec

    def _exec_counter(self, seq: int) -> InstrRecord:
        """Loop-counter update: addi x7, x7, 1 (self-recurring)."""
        encoded = _word("addi", rd=self._COUNTER_REG,
                        rs1=self._COUNTER_REG, imm=1)
        rec = self._emit(seq, self._pc, encoded, dst=self._COUNTER_REG,
                         srcs=(self._COUNTER_REG,),
                         result=self._rng.next_u64())
        self._recent_dsts.append(None)
        self._slot += 1
        return rec

    def _exec_branch(self, seq: int, slot: _Slot) -> InstrRecord:
        if slot.trip > 0:
            # Loop-closing branch: deterministic trip count with small
            # jitter (TAGE learns the pattern, mispredicting exits).
            site = self._pc
            remaining = self._loop_state.get(site)
            if remaining is None:
                remaining = max(1, slot.trip
                                + self._rng.randint(-2, 2))
            remaining -= 1
            taken = remaining > 0
            if taken:
                self._loop_state[site] = remaining
            else:
                self._loop_state.pop(site, None)
        else:
            taken = self._rng.chance(slot.bias)
        target = self._func.base + slot.target_slot * 4
        # Branch conditions: predominantly the loop counter (resolves
        # in a cycle), otherwise a recent ALU result.
        if self._rng.chance(0.85):
            rs1, rs2 = self._COUNTER_REG, 0
        else:
            rs1 = self._rng.choice(self._recent_alu_dsts)
            rs2 = self._rng.choice(self._recent_alu_dsts)
        encoded = _word("bne", rs1=rs1, rs2=rs2, imm=0)
        rec = self._emit(seq, self._pc, encoded, srcs=(rs1, rs2),
                         taken=taken, target=target)
        self._recent_dsts.append(None)
        self._slot = slot.target_slot if taken else self._slot + 1
        return rec

    def _exec_call(self, seq: int, slot: _Slot) -> InstrRecord:
        callee = self._get_function(slot.callee)
        pc = self._pc
        encoded = _word("jal", rd=1, imm=0)
        rec = self._emit(seq, pc, encoded, dst=1, taken=True,
                         target=callee.base, result=pc + 4)
        self._call_stack.append((self._func.index, self._slot + 1, pc + 4))
        self._recent_dsts.append(1)
        self._func = callee
        self._slot = 0
        return rec

    def _exec_borrowed_call(self, seq: int) -> InstrRecord:
        """A call emitted from a borrowed ALU slot (per-site target)."""
        site = self._pc
        callee_idx = self._callee_for_site(site)
        callee = self._get_function(callee_idx)
        encoded = _word("jal", rd=1, imm=0)
        rec = self._emit(seq, site, encoded, dst=1, taken=True,
                         target=callee.base, result=site + 4)
        self._call_stack.append((self._func.index, self._slot + 1,
                                 site + 4))
        self._recent_dsts.append(1)
        self._func = callee
        self._slot = 0
        return rec

    def _callee_for_site(self, site: int) -> int:
        callees = self._site_callees
        idx = callees.get(site)
        if idx is None:
            idx = self._rng.zipf_index(self._num_funcs, skew=3.0)
            callees[site] = idx
        return idx

    def _exec_ret(self, seq: int) -> InstrRecord:
        func_idx, slot, return_pc = self._call_stack.pop()
        encoded = _word("jalr", rd=0, rs1=1, imm=0)
        rec = self._emit(seq, self._pc, encoded, srcs=(1,), taken=True,
                         target=return_pc)
        self._recent_dsts.append(None)
        self._func = self._get_function(func_idx)
        self._slot = slot
        return rec

    def _exec_alu(self, seq: int, kind: int) -> InstrRecord:
        if kind == _ALU and self._rng.chance(0.2):
            return self._exec_counter(seq)
        dst = self._next_dst()
        rs1, rs2 = self._dep_src(), self._dep_src()
        if kind == _FP:
            encoded = _word("fadd", rd=dst, rs1=rs1, rs2=rs2)
        elif kind == _MUL:
            encoded = _word("mul", rd=dst, rs1=rs1, rs2=rs2)
        elif kind == _DIV:
            encoded = _word("div", rd=dst, rs1=rs1, rs2=rs2)
        else:
            encoded = _word("add", rd=dst, rs1=rs1, rs2=rs2)
        rec = self._emit(seq, self._pc, encoded, dst=dst, srcs=(rs1, rs2),
                         result=self._rng.next_u64())
        self._recent_dsts.append(dst)
        if kind == _ALU:
            self._recent_alu_dsts.append(dst)
        self._slot += 1
        return rec

    def _exec_alloc(self, seq: int) -> InstrRecord:
        granules = self._rng.geometric(
            min(1.0, 16.0 / self.profile.mean_alloc_bytes), cap=4096)
        size = granules * 16
        base = self._heap_cursor
        self._heap_cursor += size + 16  # gap keeps objects disjoint
        obj = HeapObject(base=base, size=size, alloc_seq=seq)
        self._live.append(obj)
        self._objects.append(obj)
        # Fresh allocations are initialised by a streaming memset: the
        # sequential stores overlap their (compulsory) misses, instead
        # of paying them serially on later random accesses.
        lines = min(32, max(1, size // LINE_BYTES))
        self._init_stores = [base + i * LINE_BYTES for i in range(lines)]
        encoded = _word("custom0.f0", rd=0, rs1=10, rs2=11)
        rec = self._emit(seq, self._pc, encoded, iclass=InstrClass.CUSTOM,
                         mem_addr=base, mem_size=size, result=size)
        self._recent_dsts.append(None)
        self._slot += 1
        return rec

    def _exec_init_store(self, seq: int) -> InstrRecord:
        """One store of a fresh object's initialising memset."""
        addr = self._init_stores.pop(0)
        encoded = _word("sd", rs1=10, rs2=0, imm=0)
        rec = self._emit(seq, self._pc, encoded, srcs=(10,), mem_addr=addr,
                         mem_size=8, result=0)
        self._recent_dsts.append(None)
        self._slot += 1
        return rec

    def _exec_free(self, seq: int) -> InstrRecord:
        idx = self._rng.randint(0, len(self._live) - 1)
        obj = self._live.pop(idx)
        obj.free_seq = seq
        encoded = _word("custom0.f1", rd=0, rs1=10)
        rec = self._emit(seq, self._pc, encoded, iclass=InstrClass.CUSTOM,
                         mem_addr=obj.base, mem_size=obj.size,
                         result=obj.size)
        self._recent_dsts.append(None)
        self._slot += 1
        return rec

    # -- main loop ----------------------------------------------------
    def iter_records(self):
        """Yield the trace's records one at a time.

        The streaming pipeline consumes this directly (one record plus
        the heap ground-truth table resident); :meth:`generate`
        materialises the same sequence.  After exhaustion the
        generation metadata is available from :meth:`final_meta`.
        """
        rng = self._rng
        max_depth = self.profile.max_call_depth
        seq = 0

        # Seed the heap so early loads can hit live objects.
        for _ in range(4):
            yield self._exec_alloc(seq)
            seq += 1

        while seq < self.length:
            # Drain any pending allocation memset first.
            if self._init_stores:
                yield self._exec_init_store(seq)
                seq += 1
                continue

            # Allocator events interleave at the profile's rate.
            if rng.chance(self._event_prob):
                if (len(self._live) >= self.max_live_objects
                        or (len(self._live) > 8 and rng.chance(0.5))):
                    yield self._exec_free(seq)
                else:
                    yield self._exec_alloc(seq)
                seq += 1
                continue

            # Function end: return (or restart at main's top).
            if self._slot >= len(self._func.slots):
                if self._call_stack:
                    yield self._exec_ret(seq)
                    seq += 1
                else:
                    self._slot = 0
                continue

            slot = self._func.slots[self._slot]
            kind = slot.kind
            # Loops re-execute bodies that often contain no call sites,
            # diluting the dynamic call rate below the profile's; when
            # that happens, borrow ALU slots for call/return events.
            if (kind == _ALU
                    and self._ctrl_events
                    < self.profile.frac_call * 2 * seq):
                kind = _CALL
            if kind == _CALL:
                # Call sites double as return sites so the dynamic
                # call/return rate tracks the profile even when loops
                # keep execution away from function ends.
                self._ctrl_events += 1
                if self._call_stack and (
                        len(self._call_stack) >= max_depth
                        or rng.chance(0.45)):
                    yield self._exec_ret(seq)
                elif slot.kind == _CALL:
                    yield self._exec_call(seq, slot)
                else:
                    # Borrowed ALU slot: call a hot function.
                    yield self._exec_borrowed_call(seq)
            elif kind == _LOAD:
                yield self._exec_load(seq, slot)
            elif kind == _STORE:
                yield self._exec_store(seq, slot)
            elif kind == _BRANCH:
                yield self._exec_branch(seq, slot)
            else:
                yield self._exec_alu(seq, kind)
            seq += 1

    def unwind_records(self, seq: int):
        """Yield returns closing every open frame, starting at ``seq``.

        The scenario compositor calls this at each phase boundary so a
        phase hands the next one a balanced call stack (the shadow
        stack kernel's ground truth never straddles a profile switch).
        """
        while self._call_stack:
            yield self._exec_ret(seq)
            seq += 1

    def final_meta(self) -> dict:
        """Generation metadata, valid once the record stream finished
        (keyword-compatible with :meth:`TraceWriter.finalize`)."""
        warm_lines = min(self._WARM_LINES, self._num_lines)
        return dict(
            objects=self._objects, heap_base=self._heap_base,
            heap_end=self._heap_cursor, global_base=GLOBAL_BASE,
            global_end=GLOBAL_BASE + self._num_lines * LINE_BYTES,
            warm_end=GLOBAL_BASE + warm_lines * LINE_BYTES)

    def generate(self) -> Trace:
        records = list(self.iter_records())
        return Trace(name=self.profile.name, seed=self.seed,
                     records=records, **self.final_meta())


def generate_trace(profile: WorkloadProfile, seed: int = 1,
                   length: int = 20000) -> Trace:
    """Convenience wrapper: one-call trace generation."""
    return TraceGenerator(profile, seed=seed, length=length).generate()
