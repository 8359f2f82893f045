"""Data-forwarding channel (§III-A, Fig 2).

Buffer-free bypass circuits at the ROB, PRFs, LSQ and FTQ extract debug
data for committed instructions the mini-filters selected.  The only
microarchitectural cost is PRF read-port contention: when a packet
needs PRF data, the channel preempts the lane's read controller in the
cycle after retirement, delaying any issuing instruction that wanted
the same port (Fig 2 step c).  LDQ/STQ/FTQ reads come from the queue
tops and are contention-free (§III-A footnote 3).
"""

from __future__ import annotations

from repro.core.config import DP_PRF
from repro.core.minifilter import FilterEntry
from repro.core.packet import Packet
from repro.isa.opcodes import PRF_RESULT_CLASSES, InstrClass
from repro.ooo.prf import PhysicalRegisterFile
from repro.trace.record import InstrRecord
from repro.utils.stats import Instrumented


class DataForwardingChannel(Instrumented):
    """Builds packets from commit events and models the PRF bypass."""

    def __init__(self, prf: PhysicalRegisterFile | None):
        self._prf = prf
        self.stat_packets = 0
        self.stat_prf_reads = 0

    def capture(self, record: InstrRecord, entry: FilterEntry, seq: int,
                cycle: int, commit_ns: float) -> Packet:
        """Extract the selected debug data for a filtered instruction.

        The PRF read happens in the cycle after retirement (the
        mini-filter decision takes one cycle — Fig 2 step b), so the
        port preemption lands at ``cycle + 1``.
        """
        is_alloc = (record.iclass is InstrClass.CUSTOM
                    and record.funct3 == 0)
        is_free = (record.iclass is InstrClass.CUSTOM
                   and record.funct3 == 1)
        packet = Packet(seq=seq, gid=entry.gid, record=record,
                        commit_ns=commit_ns, is_alloc=is_alloc,
                        is_free=is_free)
        self.stat_packets += 1

        if (entry.dp_sel & DP_PRF
                and record.iclass in PRF_RESULT_CLASSES
                and self._prf is not None):
            self._prf.preempt_port(cycle + 1)
            self.stat_prf_reads += 1
        return packet
