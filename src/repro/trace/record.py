"""Trace records: the unit of work flowing through the simulator.

An :class:`InstrRecord` is one committed instruction with every field
the data-forwarding channel could extract: PC, encoded word, operand
and result data, memory address, and control-flow outcome.  Allocation
and free events appear as ``custom0`` instructions (the FireGuard
runtime instruments the allocator with them), carrying the region base
and size in the address/result fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import InstrClass


class InstrRecord:
    """One dynamic instruction.  Slotted: traces hold tens of thousands."""

    __slots__ = (
        "seq", "pc", "word", "opcode", "funct3", "iclass",
        "dst", "srcs", "mem_addr", "mem_size", "taken", "target",
        "result", "attack_id",
    )

    def __init__(self, seq: int, pc: int, word: int, opcode: int,
                 funct3: int, iclass: InstrClass, dst: int | None = None,
                 srcs: tuple[int, ...] = (), mem_addr: int | None = None,
                 mem_size: int = 0, taken: bool = False, target: int = 0,
                 result: int = 0, attack_id: int | None = None):
        self.seq = seq
        self.pc = pc
        self.word = word
        self.opcode = opcode
        self.funct3 = funct3
        self.iclass = iclass
        self.dst = dst
        self.srcs = srcs
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.taken = taken
        self.target = target
        self.result = result
        self.attack_id = attack_id

    @property
    def is_mem(self) -> bool:
        return self.iclass is InstrClass.LOAD or self.iclass is InstrClass.STORE

    @property
    def is_ctrl(self) -> bool:
        return self.iclass in (InstrClass.BRANCH, InstrClass.JUMP,
                               InstrClass.CALL, InstrClass.RET)

    def __repr__(self) -> str:
        return (f"InstrRecord(seq={self.seq}, pc={self.pc:#x}, "
                f"{self.iclass.name}, word={self.word:#010x})")


@dataclass
class HeapObject:
    """A synthetic heap allocation tracked for attack injection and the
    UaF/ASan kernels' ground truth."""

    base: int
    size: int
    alloc_seq: int
    free_seq: int | None = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def live_at(self, seq: int) -> bool:
        if seq < self.alloc_seq:
            return False
        return self.free_seq is None or seq < self.free_seq


@dataclass
class Trace:
    """A generated workload: records plus generation metadata."""

    name: str
    seed: int
    records: list[InstrRecord]
    objects: list[HeapObject] = field(default_factory=list)
    heap_base: int = 0
    heap_end: int = 0
    global_base: int = 0
    global_end: int = 0
    # End of the structurally warm region: lines below this are part
    # of the workload's steady-state L2-resident set, which simulators
    # warm before timing (a short trace otherwise measures compulsory
    # misses).  0 disables warm-region warming.
    warm_end: int = 0

    def __len__(self) -> int:
        return len(self.records)

    # Trace-source protocol, shared with
    # :class:`~repro.trace.stream.StreamedTrace`: the simulator asks a
    # workload for a fresh full pass (warm-up) and a sequential indexed
    # view (dispatch) instead of touching ``records`` directly, so an
    # on-disk trace can serve both with bounded memory.
    def iter_records(self):
        """A fresh pass over all records."""
        return iter(self.records)

    def record_view(self) -> list[InstrRecord]:
        """Sequential indexed access for the dispatch loop."""
        return self.records

    def class_counts(self) -> dict[InstrClass, int]:
        counts: dict[InstrClass, int] = {}
        for rec in self.records:
            counts[rec.iclass] = counts.get(rec.iclass, 0) + 1
        return counts

    def mem_fraction(self) -> float:
        if not self.records:
            return 0.0
        mem = sum(1 for r in self.records if r.is_mem)
        return mem / len(self.records)
