"""Event filter (§III-B, Fig 1-b, Fig 4): mini-filters, paired FIFOs,
and the in-order arbiter.

One mini-filter hangs off each commit lane.  Every committed
instruction pushes *something* into its lane FIFO — a real packet if
the SRAM matched, an invalid placeholder otherwise — so commit order is
recoverable.  The arbiter walks packets in sequence order, skipping
invalid packets for free and emitting one valid packet per cycle
(§III-B footnote 4).

Back-pressure: when a lane FIFO is full, that commit lane (and, because
commit is in order, every younger lane) stalls — the mechanism Fig 9
measures as "proportion of time queues are full".
"""

from __future__ import annotations

from collections import deque

from repro.core.forwarding import DataForwardingChannel
from repro.core.minifilter import FilterEntry, MiniFilter
from repro.core.packet import Packet
from repro.errors import ConfigError
from repro.isa.filter_index import FILTER_TABLE_SIZE
from repro.trace.record import InstrRecord
from repro.utils.stats import Instrumented


class EventFilter(Instrumented):
    """Superscalar event filter, as wide as the core's commit."""

    def __init__(self, width: int, fifo_depth: int,
                 forwarding: DataForwardingChannel,
                 high_period_ns: float):
        if width <= 0:
            raise ConfigError("filter width must be positive")
        if fifo_depth <= 0:
            raise ConfigError("filter FIFO depth must be positive")
        self.width = width
        self.fifo_depth = fifo_depth
        self.forwarding = forwarding
        self._high_period_ns = high_period_ns

        # All mini-filters share one SRAM programming image.
        shared_table: list[FilterEntry | None] = [None] * FILTER_TABLE_SIZE
        self.minifilters = [MiniFilter(shared_table) for _ in range(width)]
        self._fifos: list[deque[Packet]] = [deque() for _ in range(width)]

        self._seq = 0            # commit-order sequence stamped on packets
        self._arbiter_next = 0   # next sequence number to emit
        self._lane_rr = 0
        self._pending = 0        # packets buffered across all FIFOs
        self.stat_full_cycles = 0      # cycles some lane FIFO was full
        self.stat_valid_packets = 0
        self.stat_invalid_packets = 0
        self.stat_emitted = 0

    # -- programming -----------------------------------------------------
    def program(self, opcode: int, funct3: int, entry: FilterEntry) -> None:
        self.minifilters[0].program(opcode, funct3, entry)

    def program_all_funct3(self, opcode: int, entry: FilterEntry) -> None:
        self.minifilters[0].program_all_funct3(opcode, entry)

    def clear_programming(self) -> None:
        self.minifilters[0].clear()

    # -- session reset -----------------------------------------------------
    def reset(self) -> None:
        """Drop all queued packets and counters; keep the SRAM
        programming (it is build-time state)."""
        for fifo in self._fifos:
            fifo.clear()
        self._seq = 0
        self._arbiter_next = 0
        self._lane_rr = 0
        self._pending = 0
        self.reset_stats()

    # -- commit side (high domain) ---------------------------------------
    def offer(self, record: InstrRecord, lane: int, cycle: int) -> bool:
        """Called by the commit stage for each retiring instruction.

        Returns False (stall) when the lane FIFO cannot take another
        entry this cycle.
        """
        fifo = self._fifos[lane % self.width]
        if len(fifo) >= self.fifo_depth:
            return False
        mini = self.minifilters[lane % self.width]
        entry = mini.lookup(record.opcode, record.funct3)
        if entry is None:
            fifo.append(Packet.invalid(self._seq))
            self.stat_invalid_packets += 1
        else:
            commit_ns = cycle * self._high_period_ns
            fifo.append(self.forwarding.capture(
                record, entry, self._seq, cycle, commit_ns))
            self.stat_valid_packets += 1
        self._seq += 1
        self._pending += 1
        return True

    @property
    def lanes(self) -> int:
        return self.width

    # -- arbiter side (high domain) ----------------------------------------
    def arbitrate(self, cycle: int) -> Packet | None:
        """Emit the next in-order valid packet, or None.

        Invalid packets are discarded without consuming the cycle; one
        valid packet is produced per call (the arbiter's FSM rate).
        """
        if any(len(f) >= self.fifo_depth for f in self._fifos):
            self.stat_full_cycles += 1

        while True:
            fifo = self._find_fifo_with(self._arbiter_next)
            if fifo is None:
                return None
            packet = fifo.popleft()
            self._arbiter_next += 1
            self._pending -= 1
            if packet.valid:
                self.stat_emitted += 1
                return packet
            # Invalid placeholders are skipped for free.

    def _find_fifo_with(self, seq: int) -> deque[Packet] | None:
        for fifo in self._fifos:
            if fifo and fifo[0].seq == seq:
                return fifo
        return None

    # -- drain state -------------------------------------------------------
    @property
    def pending(self) -> int:
        """Buffered packets across all lane FIFOs, O(1) — the session
        reads this every cycle once the core is done."""
        return self._pending

    def fifo_occupancy(self) -> list[int]:
        return [len(f) for f in self._fifos]
