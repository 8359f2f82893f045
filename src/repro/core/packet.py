"""Packet encapsulation (Fig 4(b): G_ID | Inst | PC | Addr | Debug_Data).

Packets are what flows from the event filter through the mapper into
the analysis engines' message queues.  Guardian kernels running on
µcores read packets as four 64-bit words through the ISAX queue
instructions (``pop rd, rs1`` returns bitfields ``[rs1+63:rs1]``), so
the field layout here is part of the programming model:

====  ==========  ====================================================
word  bit offset  contents
====  ==========  ====================================================
0     0           metadata: class flags[5:0] (load/store/call/ret/
                  alloc/free), GID[15:8], opcode[22:16], funct3[25:23],
                  mem_size[33:26], instruction word bits in [63:34]
1     64          PC of the committed instruction
2     128         memory address / branch target / allocation base
3     192         debug data (store value, return address, alloc size)
====  ==========  ====================================================

The class flags sit in the low bits so kernels can test them with one
``andi`` (12-bit immediate).
"""

from __future__ import annotations

from repro.isa.opcodes import InstrClass
from repro.trace.record import InstrRecord

# Class flag bits in metadata word bits [5:0].
META_LOAD = 1 << 0
META_STORE = 1 << 1
META_CALL = 1 << 2
META_RET = 1 << 3
META_ALLOC = 1 << 4
META_FREE = 1 << 5

# Word bit offsets for the ISAX pop/top/recent offset operand.
OFF_META = 0
OFF_PC = 64
OFF_ADDR = 128
OFF_DATA = 192

_CLASS_FLAGS = {
    InstrClass.LOAD: META_LOAD,
    InstrClass.STORE: META_STORE,
    InstrClass.CALL: META_CALL,
    InstrClass.RET: META_RET,
}

_MASK64 = (1 << 64) - 1


class Packet:
    """One filtered, encapsulated commit event."""

    __slots__ = ("seq", "gid", "valid", "pc", "addr", "data", "meta",
                 "attack_id", "commit_ns")

    def __init__(self, seq: int, gid: int, record: InstrRecord,
                 commit_ns: float, is_alloc: bool = False,
                 is_free: bool = False):
        self.seq = seq
        self.gid = gid
        self.valid = True
        self.pc = record.pc
        self.attack_id = record.attack_id
        self.commit_ns = commit_ns

        iclass = record.iclass
        if iclass in (InstrClass.BRANCH, InstrClass.JUMP, InstrClass.CALL,
                      InstrClass.RET):
            self.addr = record.target
        elif record.mem_addr is not None:
            self.addr = record.mem_addr
        else:
            self.addr = 0
        self.data = record.result & _MASK64

        meta = _CLASS_FLAGS.get(iclass, 0)
        if is_alloc:
            meta |= META_ALLOC
        if is_free:
            meta |= META_FREE
        meta |= (self.gid & 0xFF) << 8
        meta |= (record.opcode & 0x7F) << 16
        meta |= (record.funct3 & 0x7) << 23
        meta |= (record.mem_size & 0xFF) << 26
        meta |= (record.word & 0x3FFFFFFF) << 34
        self.meta = meta

    @classmethod
    def invalid(cls, seq: int) -> "Packet":
        """An ordering placeholder for a discarded instruction (§III-B:
        invalid packets keep FIFO contents in commit order; the arbiter
        skips them without consuming a cycle)."""
        pkt = object.__new__(cls)
        pkt.seq = seq
        pkt.gid = 0
        pkt.valid = False
        pkt.pc = 0
        pkt.addr = 0
        pkt.data = 0
        pkt.meta = 0
        pkt.attack_id = None
        pkt.commit_ns = 0.0
        return pkt

    def word(self, bit_offset: int) -> int:
        """The 64-bit field at ``bit_offset`` — what ``pop/top/recent``
        with that offset operand returns."""
        if bit_offset < 64:
            value = self.meta >> bit_offset
        elif bit_offset < 128:
            value = self.pc >> (bit_offset - 64)
        elif bit_offset < 192:
            value = self.addr >> (bit_offset - 128)
        else:
            value = self.data >> (bit_offset - 192)
        return value & _MASK64

    def __repr__(self) -> str:
        if not self.valid:
            return f"Packet(seq={self.seq}, invalid)"
        return (f"Packet(seq={self.seq}, gid={self.gid}, pc={self.pc:#x}, "
                f"addr={self.addr:#x})")
