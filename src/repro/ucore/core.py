"""The µcore: functional + timing ISS for analysis engines.

A Rocket-like 5-stage in-order scalar pipeline at 1.6 GHz (Table II).
The model executes guardian-kernel programs functionally and charges
cycle costs that reproduce the pipeline behaviours the paper's
programming-model study (Fig 11) depends on:

* late-result (MA-stage) producers — loads and ISAX queue ops — cost a
  bubble when the very next instruction consumes the result;
* taken branches cost a redirect bubble;
* the ISAX interface style (post-commit vs MA-stage) sets queue-op
  cost via :class:`repro.core.isax.IsaxInterface`;
* D-cache misses stall for the shared-L2/LLC/DRAM latency, with a
  small TLB whose walks produce the Fig 8 tail latencies.

Blocking semantics: ``qpop``/``qtop``/``ppop`` on an empty queue and
``qpush`` into a full output queue stall the pipeline until the
operation can complete — the hardware handshake the message-queue
controller implements.

The per-cycle interpreter itself lives in
:mod:`repro.hotpath.ucore_kernel` (DESIGN.md: hotpath layer): this
class owns the engine's flat state arrays, decodes the program once
through the digest-keyed cache in :mod:`repro.hotpath.decode`, and
delegates :meth:`tick` to the kernel's ``ucore_tick``.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import FireGuardConfig
from repro.core.isax import IsaxInterface, IsaxStyle
from repro.core.msgqueue import QueueController
from repro.errors import SimulationError
from repro.hotpath import ucore_kernel as _uk
from repro.hotpath.decode import decode_ucore_program
from repro.mem.cache import CacheParams, SetAssocCache
from repro.mem.sparse import SparseMemory
from repro.mem.tlb import Tlb, TlbParams
from repro.utils.stats import Instrumented
from repro.ucore.isa import UInstr

_MASK64 = (1 << 64) - 1

AlertCallback = Callable[[int, int, int], None]
"""(engine_id, alert_code, low_cycle)."""


class UcoreMemory:
    """Shared memory side for all µcores: one functional store, one
    shared timing L2, and fixed deeper latencies (Fig 6: the µcores
    hang off the shared L2/memory)."""

    def __init__(self, config: FireGuardConfig,
                 data: SparseMemory | None = None):
        self.config = config
        self.data = data if data is not None else SparseMemory()
        self.l2 = SetAssocCache(CacheParams(
            name="uL2", size_bytes=512 * 1024, ways=8,
            hit_latency=config.ucore_l2_latency, mshrs=12))
        self.llc = SetAssocCache(CacheParams(
            name="uLLC", size_bytes=4 * 1024 * 1024, ways=8,
            hit_latency=config.ucore_llc_latency, mshrs=8))

    def reset(self) -> None:
        """Fresh shared memory: new functional store (shadow memory,
        quarantine lists and shadow stacks from the previous trace must
        not leak into the next run) and cold shared caches."""
        self.data = SparseMemory()
        self.l2.reset()
        self.llc.reset()

    def miss_latency(self, addr: int, low_cycle: int) -> int:
        """Latency beyond the µcore's L1 for a missing line."""
        latency = self.config.ucore_l2_latency
        hit, mshr = self.l2.lookup(addr, low_cycle,
                                   self.config.ucore_llc_latency)
        latency += mshr
        if hit:
            return latency
        latency += self.config.ucore_llc_latency
        hit, mshr = self.llc.lookup(addr, low_cycle,
                                    self.config.ucore_dram_latency)
        latency += mshr
        if hit:
            return latency
        return latency + self.config.ucore_dram_latency


class MicroCore(Instrumented):
    """One analysis engine executing a guardian-kernel program.

    Architectural and timing state is flattened into ``self._st`` (a
    ``list[int]`` indexed by the slot constants in
    :mod:`repro.hotpath.ucore_kernel`) and ``self.regs``; the familiar
    attributes (``pc``, ``halted``, ``blocked``, ``stat_*``) are
    read/write views over those slots, so tests and tools keep their
    surface while the per-cycle path runs on flat ints.
    """

    SPIN_IDLE_WINDOW = 64

    def __init__(self, engine_id: int, program: list[UInstr],
                 controller: QueueController, memory: UcoreMemory,
                 config: FireGuardConfig,
                 isax: IsaxInterface | None = None,
                 on_alert: AlertCallback | None = None,
                 name: str = "ucore"):
        if not program:
            raise SimulationError(f"{name}: empty program")
        self.engine_id = engine_id
        self.program = program
        self.controller = controller
        self.memory = memory
        self.config = config
        self.isax = isax or IsaxInterface(IsaxStyle.MA_STAGE)
        self.on_alert = on_alert
        self.name = name

        self.regs = [0] * 32
        self.regs[2] = 0x0000_7000_0000_0000 + engine_id * 0x1_0000  # sp

        self.l1d = SetAssocCache(CacheParams(
            name=f"{name}{engine_id}.L1D",
            size_bytes=config.ucore_l1_kb * 1024,
            ways=config.ucore_l1_ways, hit_latency=1, mshrs=2))
        self.tlb = Tlb(TlbParams(
            name=f"{name}{engine_id}.TLB",
            entries=config.ucore_tlb_entries,
            walk_latency=config.ucore_tlb_walk))

        self._presets: dict[int, int] = {}

        # Flat per-engine state + the decoded program (digest-cached:
        # every engine built from the same assembled kernel shares one
        # decode).
        self._decoded = decode_ucore_program(program)
        self._prog = self._decoded.prog
        st = [0] * _uk.ST_LEN
        st[_uk.ENGINE_ID] = engine_id
        st[_uk.NUM_ENGINES] = max(1, config.num_engines)
        st[_uk.PROG_LEN] = len(program)
        st[_uk.L2_LAT] = config.ucore_l2_latency
        self._st = st
        self._tick = _uk.ucore_tick

    # -- state views (flat slots behind the classic attribute surface) ----
    @property
    def pc(self) -> int:
        return self._st[_uk.PC]

    @pc.setter
    def pc(self, value: int) -> None:
        self._st[_uk.PC] = value

    @property
    def halted(self) -> bool:
        return self._st[_uk.HALTED] != 0

    @halted.setter
    def halted(self, value: bool) -> None:
        self._st[_uk.HALTED] = 1 if value else 0

    @property
    def blocked(self) -> bool:
        return self._st[_uk.BLOCKED] != 0

    @blocked.setter
    def blocked(self, value: bool) -> None:
        self._st[_uk.BLOCKED] = 1 if value else 0

    @property
    def stat_instructions(self) -> int:
        return self._st[_uk.STAT_INSTR]

    @stat_instructions.setter
    def stat_instructions(self, value: int) -> None:
        self._st[_uk.STAT_INSTR] = value

    @property
    def stat_stall_cycles(self) -> int:
        return self._st[_uk.STAT_STALL]

    @stat_stall_cycles.setter
    def stat_stall_cycles(self, value: int) -> None:
        self._st[_uk.STAT_STALL] = value

    @property
    def stat_pops(self) -> int:
        return self._st[_uk.STAT_POPS]

    @stat_pops.setter
    def stat_pops(self, value: int) -> None:
        self._st[_uk.STAT_POPS] = value

    @property
    def stat_alerts(self) -> int:
        return self._st[_uk.STAT_ALERTS]

    @stat_alerts.setter
    def stat_alerts(self, value: int) -> None:
        self._st[_uk.STAT_ALERTS] = value

    def stats(self) -> dict[str, int]:
        """Counters live in flat slots, not ``stat_*`` attributes, so
        the :class:`Instrumented` ``vars()`` scan cannot see them."""
        st = self._st
        return {
            "instructions": st[_uk.STAT_INSTR],
            "stall_cycles": st[_uk.STAT_STALL],
            "pops": st[_uk.STAT_POPS],
            "alerts": st[_uk.STAT_ALERTS],
        }

    def reset_stats(self) -> None:
        st = self._st
        st[_uk.STAT_INSTR] = 0
        st[_uk.STAT_STALL] = 0
        st[_uk.STAT_POPS] = 0
        st[_uk.STAT_ALERTS] = 0

    # -- setup -------------------------------------------------------------
    def preset_registers(self, values: dict[int, int]) -> None:
        """Load kernel configuration registers before the run.

        The values are remembered so :meth:`reset` can restore them."""
        for reg, value in values.items():
            if not 0 < reg < 32:
                raise SimulationError(f"cannot preset register x{reg}")
            self.regs[reg] = value & _MASK64
            self._presets[reg] = value & _MASK64

    def reset(self) -> None:
        """Power-on state with the program and presets retained: the
        session reuses one assembled engine across many traces."""
        self.regs = [0] * 32
        self.regs[2] = 0x0000_7000_0000_0000 + self.engine_id * 0x1_0000
        for reg, value in self._presets.items():
            self.regs[reg] = value
        self.l1d.reset()
        self.tlb.reset()
        st = self._st
        st[_uk.PC] = 0
        st[_uk.HALTED] = 0
        st[_uk.BLOCKED] = 0
        st[_uk.STALL_UNTIL] = 0
        st[_uk.PREV_QOP] = 0
        st[_uk.SINCE_EFFECT] = 0
        st[_uk.BLOCKED_ON] = _uk.WAIT_NONE
        self.reset_stats()

    # -- idle / drain detection --------------------------------------------
    def idle_at(self, low_cycle: int) -> bool:
        """True when the µcore has no work it could make progress on —
        either blocked on an empty queue, halted, or spinning a poll
        loop with nothing to poll."""
        st = self._st
        if st[_uk.HALTED]:
            return True
        ctrl = self.controller
        if not ctrl.input_queue.empty or not ctrl.peer_queue.empty:
            return False
        if st[_uk.BLOCKED]:
            return True
        # Spinning: many executed instructions with no architectural
        # effect (pop/push/store/alert) — a poll loop with nothing to
        # poll.  Counting instructions rather than cycles keeps long
        # D$-miss stalls from looking like idleness (a kernel doing
        # real work issues an effect at least every few instructions).
        return st[_uk.SINCE_EFFECT] > self.SPIN_IDLE_WINDOW

    def can_skip(self) -> bool:
        """True when ``tick`` is provably a no-op this cycle, so the
        session's low-domain loop may skip the engine entirely.

        Unlike :meth:`idle_at` (a drain heuristic that also covers
        spin loops), this is conservative: only a halted engine, or one
        blocked on a queue whose state cannot let the retried
        instruction complete, qualifies.  Blocked engines skip stall
        accounting while parked; architectural state is unaffected."""
        st = self._st
        if st[_uk.HALTED]:
            return True
        if not st[_uk.BLOCKED]:
            return False
        ctrl = self.controller
        waiting = st[_uk.BLOCKED_ON]
        if waiting == _uk.WAIT_INPUT:
            return ctrl.input_queue.empty
        if waiting == _uk.WAIT_PEER:
            return ctrl.peer_queue.empty
        if waiting == _uk.WAIT_OUTPUT:
            return not ctrl.can_push()
        return False

    def next_event_cycle(self, now: int) -> int | None:
        """Wakeable protocol (:mod:`repro.sched`): when ``tick`` next
        needs to run.

        A halted engine never does; a blocked one sleeps until the
        queue transition that can unblock it posts an explicit wake
        (the queue hooks the session wires up); a stalled engine wakes
        when its multi-cycle instruction completes; a runnable engine
        must tick every cycle.  Sleeping through a stall skips only the
        per-cycle stall accounting (``stat_stall_cycles``), never
        architectural state — the same contract ``can_skip`` gives the
        dense loop for blocked engines.
        """
        st = self._st
        if st[_uk.HALTED] or st[_uk.BLOCKED]:
            return None
        stall_until = st[_uk.STALL_UNTIL]
        if stall_until > now + 1:
            return stall_until
        return now + 1

    # -- execution ---------------------------------------------------------
    def tick(self, low_cycle: int) -> None:
        """Advance at most one instruction at this low-domain cycle."""
        self._tick(self, self._st, self.regs, self._prog, low_cycle)

    def config_engines(self) -> range:
        return range(self.config.num_engines)
