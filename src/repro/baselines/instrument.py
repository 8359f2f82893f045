"""Trace instrumentation: inline software security checks.

Each scheme defines, per protected event, the instruction sequence a
compiler would emit.  Inserted instructions use scratch registers the
workload generator never allocates (x4, x10, x11) so they perturb the
original dependence structure the way real instrumentation does —
through added work and cache pressure, not through false hazards.

Expansion factors per scheme follow the published instrumentation
shapes: ASan-AArch64 emits a longer sequence than x86-64 (no complex
addressing modes, more moves), which is why the paper measures 163.5 %
vs 91.5 % overhead; DangSan's per-free bookkeeping dominates
allocation-heavy workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TraceError
from repro.isa.decode import decode, encode_instr
from repro.isa.opcodes import InstrClass
from repro.kernels.base import SHADOW_BASE, SHADOW_STACK_BASE
from repro.ooo.core import MainCore
from repro.ooo.params import CoreParams
from repro.trace.record import InstrRecord, Trace

_SCRATCH_A = 4    # tp — never used by the workload generator
_SCRATCH_B = 10   # a0
_SCRATCH_C = 11   # a1

# ``(word, opcode, funct3, iclass)`` per encoded instruction.
_WORD_CACHE: dict[tuple, tuple[int, int, int, InstrClass]] = {}


def _mk(seq: int, pc: int, mnemonic: str, rd: int = 0, rs1: int = 0,
        rs2: int = 0, mem_addr: int | None = None, mem_size: int = 0,
        srcs: tuple[int, ...] = (), dst: int | None = None) -> InstrRecord:
    key = (mnemonic, rd, rs1, rs2)
    encoded = _WORD_CACHE.get(key)
    if encoded is None:
        word = encode_instr(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
        decoded = decode(word)
        encoded = (word, decoded.opcode, decoded.funct3, decoded.iclass)
        _WORD_CACHE[key] = encoded
    word, opcode, funct3, iclass = encoded
    return InstrRecord(seq=seq, pc=pc, word=word, opcode=opcode,
                       funct3=funct3, iclass=iclass, dst=dst, srcs=srcs,
                       mem_addr=mem_addr, mem_size=mem_size)


@dataclass(frozen=True)
class InstrumentationScheme:
    """One software scheme: a name plus per-event emit functions."""

    name: str
    description: str
    # How many inline instructions per protected event (used by the
    # emitters below and reported in docs).
    per_mem: int = 0
    per_call: int = 0
    per_ret: int = 0
    per_alloc: int = 0
    per_free: int = 0
    shadow_shift: int = 3

    def emit_mem(self, rec: InstrRecord, seq: int) -> list[InstrRecord]:
        """Check sequence before a protected load/store."""
        if not self.per_mem:
            return []
        out = []
        shadow = SHADOW_BASE + ((rec.mem_addr or 0) >> self.shadow_shift)
        # Address arithmetic then one shadow load, then compare/branch;
        # pad to the scheme's sequence length with ALU ops.
        out.append(_mk(seq, rec.pc, "srli", rd=_SCRATCH_A,
                       rs1=rec.srcs[0] if rec.srcs else 0,
                       srcs=rec.srcs[:1], dst=_SCRATCH_A))
        out.append(_mk(seq, rec.pc, "add", rd=_SCRATCH_A, rs1=_SCRATCH_A,
                       rs2=0, srcs=(_SCRATCH_A,), dst=_SCRATCH_A))
        out.append(_mk(seq, rec.pc, "lbu", rd=_SCRATCH_B, rs1=_SCRATCH_A,
                       mem_addr=shadow, mem_size=1, srcs=(_SCRATCH_A,),
                       dst=_SCRATCH_B))
        out.append(_mk(seq, rec.pc, "bne", rs1=_SCRATCH_B, rs2=0,
                       srcs=(_SCRATCH_B,)))
        for _ in range(self.per_mem - 4):
            out.append(_mk(seq, rec.pc, "andi", rd=_SCRATCH_C,
                           rs1=_SCRATCH_B, srcs=(_SCRATCH_B,),
                           dst=_SCRATCH_C))
        return out

    def emit_call(self, rec: InstrRecord, seq: int,
                  depth: int) -> list[InstrRecord]:
        if not self.per_call:
            return []
        slot = SHADOW_STACK_BASE + (depth % 4096) * 8
        out = [_mk(seq, rec.pc, "sd", rs1=_SCRATCH_A, rs2=1,
                   mem_addr=slot, mem_size=8, srcs=(1,))]
        for _ in range(self.per_call - 1):
            out.append(_mk(seq, rec.pc, "addi", rd=_SCRATCH_A,
                           rs1=_SCRATCH_A, srcs=(_SCRATCH_A,),
                           dst=_SCRATCH_A))
        return out

    def emit_ret(self, rec: InstrRecord, seq: int,
                 depth: int) -> list[InstrRecord]:
        if not self.per_ret:
            return []
        slot = SHADOW_STACK_BASE + (depth % 4096) * 8
        out = [
            _mk(seq, rec.pc, "ld", rd=_SCRATCH_B, rs1=_SCRATCH_A,
                mem_addr=slot, mem_size=8, srcs=(_SCRATCH_A,),
                dst=_SCRATCH_B),
            _mk(seq, rec.pc, "bne", rs1=_SCRATCH_B, rs2=1,
                srcs=(_SCRATCH_B, 1)),
        ]
        for _ in range(self.per_ret - 2):
            out.append(_mk(seq, rec.pc, "addi", rd=_SCRATCH_A,
                           rs1=_SCRATCH_A, srcs=(_SCRATCH_A,),
                           dst=_SCRATCH_A))
        return out

    def emit_event(self, rec: InstrRecord, seq: int,
                   is_free: bool) -> list[InstrRecord]:
        count = self.per_free if is_free else self.per_alloc
        out = []
        base = rec.mem_addr or 0
        for i in range(count):
            if i % 3 == 2:
                shadow = SHADOW_BASE + (base >> self.shadow_shift) + i
                out.append(_mk(seq, rec.pc, "sb", rs1=_SCRATCH_A,
                               rs2=_SCRATCH_B, mem_addr=shadow,
                               mem_size=1, srcs=(_SCRATCH_A, _SCRATCH_B)))
            else:
                out.append(_mk(seq, rec.pc, "addi", rd=_SCRATCH_A,
                               rs1=_SCRATCH_A, srcs=(_SCRATCH_A,),
                               dst=_SCRATCH_A))
        return out


SCHEMES: dict[str, InstrumentationScheme] = {
    # LLVM shadow stack (AArch64): save/check the link register around
    # calls and returns — the paper measures 7.9 % overhead.
    "shadow_stack_sw": InstrumentationScheme(
        name="shadow_stack_sw",
        description="LLVM ShadowCallStack-style, AArch64",
        per_call=2, per_ret=3),
    # AddressSanitizer, AArch64 flavour: long check sequences.
    "asan_aarch64": InstrumentationScheme(
        name="asan_aarch64",
        description="AddressSanitizer, AArch64 LLVM instrumentation",
        per_mem=9, per_alloc=24, per_free=16),
    # AddressSanitizer, x86-64 flavour: denser addressing, fewer ops.
    "asan_x86": InstrumentationScheme(
        name="asan_x86",
        description="AddressSanitizer, x86-64 LLVM instrumentation",
        per_mem=5, per_alloc=18, per_free=12),
    # DangSan: pointer-tracking stores plus heavy free-time work.
    "dangsan": InstrumentationScheme(
        name="dangsan",
        description="DangSan use-after-free detection, x86-64",
        per_mem=2, per_alloc=20, per_free=60),
}


def instrument_trace(trace: Trace, scheme: InstrumentationScheme) -> Trace:
    """Splice the scheme's check sequences into a trace."""
    out: list[InstrRecord] = []
    depth = 0
    for rec in trace.records:
        seq = len(out)
        if rec.is_mem and scheme.per_mem:
            for ins in scheme.emit_mem(rec, seq):
                ins.seq = len(out)
                out.append(ins)
        elif rec.iclass is InstrClass.CALL and scheme.per_call:
            for ins in scheme.emit_call(rec, seq, depth):
                ins.seq = len(out)
                out.append(ins)
        elif rec.iclass is InstrClass.RET and scheme.per_ret:
            depth = max(0, depth - 1)
            for ins in scheme.emit_ret(rec, seq, depth):
                ins.seq = len(out)
                out.append(ins)
        elif rec.iclass is InstrClass.CUSTOM:
            is_free = rec.funct3 == 1
            for ins in scheme.emit_event(rec, seq, is_free):
                ins.seq = len(out)
                out.append(ins)
        if rec.iclass is InstrClass.CALL:
            depth += 1
        clone = InstrRecord(
            seq=len(out), pc=rec.pc, word=rec.word, opcode=rec.opcode,
            funct3=rec.funct3, iclass=rec.iclass, dst=rec.dst,
            srcs=rec.srcs, mem_addr=rec.mem_addr, mem_size=rec.mem_size,
            taken=rec.taken, target=rec.target, result=rec.result,
            attack_id=rec.attack_id)
        out.append(clone)
    if len(out) < len(trace.records):
        raise TraceError("instrumentation shrank the trace")
    return Trace(name=f"{trace.name}+{scheme.name}", seed=trace.seed,
                 records=out, objects=trace.objects,
                 heap_base=trace.heap_base, heap_end=trace.heap_end,
                 global_base=trace.global_base, global_end=trace.global_end)


def software_slowdown(trace: Trace, scheme_name: str,
                      core_params: CoreParams | None = None) -> float:
    """Slowdown of the instrumented trace vs the plain trace."""
    if scheme_name not in SCHEMES:
        raise TraceError(f"unknown scheme {scheme_name!r}; "
                         f"available: {sorted(SCHEMES)}")
    params = core_params or CoreParams()
    plain = MainCore(params).run_standalone(trace).cycles
    instrumented = instrument_trace(trace, SCHEMES[scheme_name])
    inst = MainCore(params).run_standalone(instrumented).cycles
    return inst / plain
