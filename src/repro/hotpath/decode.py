"""Decode µcore programs into the hotpath's flat representation.

:func:`decode_ucore_program` turns a ``list[UInstr]`` into one flat
``list[int]`` with :data:`~repro.hotpath.ucore_kernel.STRIDE` fields
per pc (op code, dispatch kind, registers, immediate, the *next*
instruction's read-register bitmask for hazard checks, and the memory
access size) — the only program representation
:func:`~repro.hotpath.ucore_kernel.ucore_tick` reads.

Decoded programs are cached by content digest: a FireGuard system
builds one :class:`MicroCore` per engine from the *same* assembled
kernel program, and sweep harnesses build many systems from the same
kernels, so repeated construction (and ``reset()`` + run session
cycles across fresh builds) skips the re-decode entirely.
"""

from __future__ import annotations

import hashlib

from repro.hotpath import ucore_kernel as _uk
from repro.ucore.isa import (
    BRANCH_OPS,
    LOAD_OPS,
    MEM_SIZES,
    QUEUE_OPS,
    STORE_OPS,
    Op,
    UInstr,
)

#: Op → dense kernel op code, mapped by member name so the enum in
#: ``repro.ucore.isa`` stays the single source of truth.
_OP_CODE: dict[Op, int] = {
    op: getattr(_uk, "OP_" + op.name) for op in Op}

_KIND_CODE: dict[Op, int] = {
    op: (_uk.K_QUEUE if op in QUEUE_OPS
         else _uk.K_LOAD if op in LOAD_OPS
         else _uk.K_STORE if op in STORE_OPS
         else _uk.K_BRANCH if op in BRANCH_OPS
         else _uk.K_OTHER)
    for op in Op}


class DecodedProgram:
    """One decoded program: the flat array plus its identity."""

    __slots__ = ("prog", "length", "digest")

    def __init__(self, prog: list[int], length: int, digest: str):
        self.prog = prog
        self.length = length
        self.digest = digest


_CACHE: dict[str, DecodedProgram] = {}
_CACHE_LIMIT = 128
_HITS = 0
_MISSES = 0


def program_digest(program: list[UInstr]) -> str:
    """Content digest of an assembled program (cache key; also stable
    across processes for a given kernel source)."""
    text = "\n".join(
        f"{instr.op.name} {instr.rd} {instr.rs1} {instr.rs2} {instr.imm}"
        for instr in program)
    return hashlib.sha256(text.encode()).hexdigest()


def _read_mask(instr: UInstr) -> int:
    """Bitmask of the registers ``instr`` reads, excluding x0."""
    mask = 0
    for reg in instr.reads():
        if reg:
            mask |= 1 << reg
    return mask


def _decode(program: list[UInstr], digest: str) -> DecodedProgram:
    stride = _uk.STRIDE
    length = len(program)
    prog = [0] * (stride * length)
    for index, instr in enumerate(program):
        base = index * stride
        prog[base + _uk.F_OP] = _OP_CODE[instr.op]
        prog[base + _uk.F_KIND] = _KIND_CODE[instr.op]
        prog[base + _uk.F_RD] = instr.rd
        prog[base + _uk.F_RS1] = instr.rs1
        prog[base + _uk.F_RS2] = instr.rs2
        prog[base + _uk.F_IMM] = instr.imm
        if index + 1 < length:
            prog[base + _uk.F_MASK] = _read_mask(program[index + 1])
        prog[base + _uk.F_SIZE] = MEM_SIZES.get(instr.op, 0)
    return DecodedProgram(prog, length, digest)


def decode_ucore_program(program: list[UInstr]) -> DecodedProgram:
    """Decode ``program``, served from the digest-keyed cache when an
    identical program was decoded before (any engine, any system)."""
    global _HITS, _MISSES
    digest = program_digest(program)
    cached = _CACHE.get(digest)
    if cached is not None:
        _HITS += 1
        return cached
    _MISSES += 1
    decoded = _decode(program, digest)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[digest] = decoded
    return decoded


def decode_cache_stats() -> dict[str, int]:
    """Hit/miss counters (observability + tests)."""
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_CACHE)}


def clear_decode_cache() -> None:
    """Drop the cache and zero its counters (tests)."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
