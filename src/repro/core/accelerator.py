"""Hardware accelerators (§IV-A).

The paper shows that replacing the µcores with a single fixed-function
accelerator removes PMC and shadow-stack overhead entirely: an HA
consumes one packet per fabric cycle with a short pipeline, so it never
back-pressures the mapper.  These models implement the same checking
semantics as the corresponding guardian kernels, directly in Python
("hardwired" logic rather than a program on a µcore).
"""

from __future__ import annotations

from typing import Callable

from repro.core.msgqueue import MessageQueue
from repro.core.packet import (
    META_ALLOC,
    META_CALL,
    META_FREE,
    META_LOAD,
    META_RET,
    META_STORE,
    OFF_ADDR,
    OFF_DATA,
    Packet,
)
from repro.utils.stats import Instrumented

AlertCallback = Callable[[int, Packet, int], None]
"""(engine_id, packet, low_cycle) — invoked on each detection."""


class HardwareAccelerator(Instrumented):
    """Base: drains its message queue at the fabric's line rate.

    The fixed-function pipeline accepts several packets per fabric
    cycle (``throughput``, default sized to the core's commit width at
    the 2:1 clock ratio), which is what lets an HA remove PMC and
    shadow-stack overhead entirely (§IV-A).
    """

    name = "ha"

    def __init__(self, engine_id: int, queue: MessageQueue,
                 on_alert: AlertCallback, throughput: int = 8):
        self.engine_id = engine_id
        self.queue = queue
        self.on_alert = on_alert
        self.throughput = throughput
        self.stat_packets = 0
        self.stat_alerts = 0

    def tick(self, low_cycle: int) -> None:
        for _ in range(self.throughput):
            if self.queue.empty:
                return
            self.queue.pop(0)
            packet = self.queue.recent_packet
            self.stat_packets += 1
            if self.check(packet, low_cycle):
                self.stat_alerts += 1
                self.on_alert(self.engine_id, packet, low_cycle)

    def check(self, packet: Packet, low_cycle: int) -> bool:
        """Return True when the packet violates the property."""
        raise NotImplementedError

    @property
    def idle(self) -> bool:
        return self.queue.empty

    def idle_at(self, _low_cycle: int) -> bool:
        """Uniform drain-check interface with :class:`MicroCore`."""
        return self.queue.empty

    def can_skip(self) -> bool:
        """Uniform idle-skip interface with :class:`MicroCore`: an HA
        with an empty queue has nothing to do this cycle."""
        return self.queue.empty

    def next_event_cycle(self, now: int) -> int | None:
        """Wakeable protocol (:mod:`repro.sched`): an HA drains its
        queue every cycle while work is buffered and sleeps otherwise
        (the queue's push hook wakes it when a packet lands)."""
        return None if self.queue.empty else now + 1

    def reset(self) -> None:
        """Power-on state (session reset); subclasses reset their
        checking state via :meth:`_reset_state`."""
        self._reset_state()
        self.reset_stats()

    def _reset_state(self) -> None:
        """Subclass hook: clear kernel-specific checking state."""


class PmcAccelerator(HardwareAccelerator):
    """Custom performance counter with bounds check, in hardware.

    Counts monitored events per class and flags any memory access
    outside the configured fence registers — the same semantics as the
    PMC guardian kernel.
    """

    name = "pmc_ha"

    def __init__(self, engine_id: int, queue: MessageQueue,
                 on_alert: AlertCallback, bound_lo: int, bound_hi: int):
        super().__init__(engine_id, queue, on_alert)
        self.bound_lo = bound_lo
        self.bound_hi = bound_hi
        self.event_count = 0

    def _reset_state(self) -> None:
        self.event_count = 0

    def check(self, packet: Packet, low_cycle: int) -> bool:
        self.event_count += 1
        addr = packet.word(OFF_ADDR)
        return not self.bound_lo <= addr < self.bound_hi


class ShadowStackAccelerator(HardwareAccelerator):
    """Shadow stack in dedicated hardware: a private LIFO of return
    addresses, pushed on calls and checked on returns."""

    name = "shadow_ha"

    def __init__(self, engine_id: int, queue: MessageQueue,
                 on_alert: AlertCallback, max_depth: int = 1024):
        super().__init__(engine_id, queue, on_alert)
        self._stack: list[int] = []
        self._max_depth = max_depth
        self.stat_overflows = 0

    def _reset_state(self) -> None:
        self._stack.clear()

    def check(self, packet: Packet, low_cycle: int) -> bool:
        meta = packet.meta
        if meta & META_CALL:
            if len(self._stack) >= self._max_depth:
                self._stack.pop(0)
                self.stat_overflows += 1
            # Debug data carries the return address (PC + 4).
            self._stack.append(packet.word(OFF_DATA))
            return False
        if meta & META_RET:
            target = packet.word(OFF_ADDR)
            if not self._stack:
                return True  # return with empty shadow stack
            expected = self._stack.pop()
            return target != expected
        return False


class AsanAccelerator(HardwareAccelerator):
    """Shadow-memory sanitiser in dedicated hardware (§IV-A).

    Same 16-byte-granule semantics as the ASan guardian kernel —
    allocations poison a redzone granule each side and clear the body,
    frees poison the body, monitored accesses check their granule —
    with one deliberate difference: free-time poisoning is synchronous.
    The µcore kernel defers it (FREE_DELAY_PACKETS) because checking is
    distributed across engines with in-flight skew; a single HA drains
    its queue in commit order, so there is no skew to quarantine
    against.
    """

    name = "asan_ha"

    # Poison bytes, mirroring repro.kernels.asan (kept literal here:
    # the kernels package layers above core and cannot be imported).
    POISON_LEFT = 0xF1
    POISON_RIGHT = 0xF3
    POISON_FREED = 0xFD
    GRANULE_SHIFT = 4

    def __init__(self, engine_id: int, queue: MessageQueue,
                 on_alert: AlertCallback):
        super().__init__(engine_id, queue, on_alert)
        # granule index -> poison byte; absent means addressable.
        self._shadow: dict[int, int] = {}

    def _reset_state(self) -> None:
        self._shadow.clear()

    def check(self, packet: Packet, low_cycle: int) -> bool:
        meta = packet.meta
        shift = self.GRANULE_SHIFT
        shadow = self._shadow
        if meta & (META_LOAD | META_STORE):
            granule = packet.word(OFF_ADDR) >> shift
            return shadow.get(granule, 0) != 0
        if meta & META_ALLOC:
            base = packet.word(OFF_ADDR)
            size = packet.word(OFF_DATA)
            first = base >> shift
            shadow[first - 1] = self.POISON_LEFT
            shadow[(base + size) >> shift] = self.POISON_RIGHT
            for granule in range(first, first + (size >> shift)):
                shadow.pop(granule, None)
            return False
        if meta & META_FREE:
            base = packet.word(OFF_ADDR)
            size = packet.word(OFF_DATA)
            first = base >> shift
            for granule in range(first, first + (size >> shift)):
                shadow[granule] = self.POISON_FREED
            return False
        return False
