"""The resettable simulation session (DESIGN.md: session layer).

One :class:`SimulationSession` drives one built
:class:`~repro.core.system.FireGuardSystem` through the dual-domain
cycle loop that used to live in ``FireGuardSystem.run``:

* the high-frequency domain steps the main core and the mapper slice
  (arbiter → allocator → CDC) every core cycle;
* the low-frequency domain moves the CDC/multicast/NoC fabric and
  ticks the analysis engines on alternate edges (Table II:
  3.2 GHz / 1.6 GHz).

The session adds three things the monolithic loop could not offer:

* **reset** — every component implements ``reset()`` back to its
  just-built state (SRAM programming, assembled kernels and engine
  partitioning are kept; queues, caches, predictors, stats are not),
  so one expensive build executes many traces deterministically;
* **event-driven scheduling** (default) — instead of polling every
  fabric component every low cycle, a cycle-wheel
  :class:`~repro.sched.EventScheduler` per clock domain tracks
  timestamped wakeups: blocked engines sleep until the queue
  transition that can unblock them, the NoC until its earliest
  arrival, the CDC until its head synchronises, and quiescent
  stretches and provable core-stall windows are fast-forwarded in
  whole slow-cycle strides;
* **the dense loop** — every component polled every cycle, with a
  conservative per-cycle ``can_skip()`` idle-skip.  The adaptive
  policy picks it for small all-µcore engine pools, where it measures
  faster.

Both loops produce bit-identical :class:`SystemResult`\\ s: every cell
of the grid in ``tests/test_golden.py`` runs under each loop and must
match its recorded golden digest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.clock.domain import DualDomainClock
from repro.errors import SimulationError
from repro.sched import EventScheduler
from repro.trace.record import Trace
from repro.utils.stats import Instrumented

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import FireGuardSystem, SystemResult


class SimulationSession(Instrumented):
    """Executes traces on a built system; ``reset()`` between traces.

    A session is *clean* after construction or :meth:`reset` and
    *dirty* after :meth:`run`; running a dirty session raises, because
    silently reusing warmed-up state would break the determinism
    guarantee (``reset() + run(trace)`` must equal a fresh build's
    ``run(trace)`` bit for bit).

    ``dense=True`` pins the dense loop and ``dense=False`` the
    event-driven scheduler (the golden test runs every cell under
    both).  The default, None, is *adaptive*: each ``run()`` picks the
    loop that measures faster for the built engine mix — the dense
    sweep for small all-µcore pools (few busy engines make the wakeup
    bookkeeping cost more than dense's direct poll), the event loop
    everywhere else.  The loops are bit-identical, so the choice is
    invisible in results.
    A system should be driven by one session (the canonical path is
    :meth:`FireGuardSystem.session`): the event scheduler wires wakeup
    hooks into the system's queues, and the last session wired wins.
    """

    #: Dense-loop drain poll interval: with the core done, the drain
    #: check runs on every 8th high cycle.  The event-driven loop
    #: reproduces the same break cycles by treating the poll
    #: boundaries as high-domain scheduler events.
    DRAIN_POLL_INTERVAL = 8

    #: Sentinel for "no fabric event scheduled" (any real cycle
    #: compares smaller).
    _NEVER = 1 << 62

    def __init__(self, system: "FireGuardSystem",
                 dense: bool | None = None):
        self.system = system
        #: True / False pins the dense / event loop; None is adaptive
        #: (the loops are bit-identical, so the choice is pure policy).
        self.dense = dense
        self.stat_mapper_blocked = 0
        self.stat_engine_ticks_skipped = 0
        self.stat_low_cycles_skipped = 0
        self.stat_high_cycles_fastforwarded = 0
        self._dirty = False
        self.runs_completed = 0

        self._low_sched = EventScheduler("low")
        self._high_sched = EventScheduler("high")
        # Set while an event-driven run is active: the mapper and the
        # queue wakeup hooks post into it; None keeps the hooks inert
        # (dense runs, direct component use in unit tests).
        self._active_low_sched: EventScheduler | None = None
        # Engines woken for the cycle currently executing (see
        # _wire_controller); consumed by the engine sweep each low
        # tick.
        self._woken: list = []
        # Controllers the fabric must visit (outgoing words to drain,
        # or a full input queue accruing back-pressure statistics);
        # ordered set maintained by the controller hooks and pruned by
        # the low tick.
        self._busy_ctrls: dict = {}
        # Next low cycle the fabric (CDC / multicast / NoC /
        # controller queues) must run, maintained inline by the low
        # tick and the mapper; _NEVER when the fabric is quiescent.
        # The engines go through the scheduler proper because their
        # wakeups are cross-component; the fabric's next event falls
        # out of state the low tick already has in hand.
        self._fabric_next = self._NEVER
        if not dense:
            self._wire_wakeups()

    @property
    def dirty(self) -> bool:
        """True once a trace has run and ``reset()`` has not."""
        return self._dirty

    # -- wakeup wiring -----------------------------------------------------
    def _wire_wakeups(self) -> None:
        """Hook every engine's queues so pushes (and output drains)
        wake the engine in the cycle the transition happens — the
        event-driven replacement for re-polling blocked engines.  The
        same transitions maintain the busy-controller set, so the low
        tick visits only controllers with outgoing words to drain or a
        full input queue to account."""
        system = self.system
        engines_by_id = {engine.engine_id: engine
                         for engine in system.engines}
        for ctrl in system.controllers:
            engine = engines_by_id.get(ctrl.engine_id)
            if engine is None:
                continue
            self._wire_controller(ctrl, engine)

    def _wire_controller(self, ctrl, engine) -> None:
        # Queue pushes (and output drains) only ever happen inside the
        # executed low tick, so a wake for "this very cycle" never
        # needs the wheel: it lands in a plain list the engine sweep
        # folds in.  Running engines tick this cycle anyway.
        running = self._low_sched.running
        woken = self._woken
        busy = self._busy_ctrls
        input_queue = ctrl.input_queue

        def input_waker() -> None:
            if self._active_low_sched is not None:
                if engine not in running:
                    woken.append(engine)
                if input_queue.full:
                    busy[ctrl] = None

        def waker() -> None:
            if self._active_low_sched is not None \
                    and engine not in running:
                woken.append(engine)

        def busy_hook() -> None:
            if self._active_low_sched is not None:
                busy[ctrl] = None

        ctrl.input_queue.wake_hook = input_waker
        ctrl.peer_queue.wake_hook = waker
        ctrl.drain_hook = waker
        ctrl.busy_hook = busy_hook

    # -- reset -------------------------------------------------------------
    def reset(self) -> None:
        """Return the system to its just-built state.

        Build-time state survives (filter SRAM programming, assembled
        kernel programs, engine partitioning, preset registers, NoC
        topology, SE subscriptions); all run state is discarded (core
        caches/TLBs/predictor, queue contents, µcore registers and
        caches, shared functional memory, statistics, scheduled
        wakeups).
        """
        system = self.system
        system.core.reset()
        system.forwarding.reset_stats()
        system.filter.reset()
        for se in system.ses:
            se.reset()
        system.allocator.reset_stats()
        system.cdc.reset()
        system.multicast.reset()
        system.noc.reset()
        for controller in system.controllers:
            controller.reset()
        system.memory.reset()
        for engine in system.engines:
            engine.reset()
        system._result = None
        system._now_ns = 0.0
        self._low_sched.reset()
        self._high_sched.reset()
        self._fabric_next = self._NEVER
        self._woken.clear()
        self._busy_ctrls.clear()
        self.reset_stats()
        self._dirty = False

    # -- stats -------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Session counters plus the per-domain scheduler counters
        (``sched_low_*`` / ``sched_high_*``)."""
        merged = super().stats()
        for prefix, sched in (("sched_low_", self._low_sched),
                              ("sched_high_", self._high_sched)):
            merged.update({prefix + key: value
                           for key, value in sched.stats().items()})
        return merged

    def reset_stats(self) -> None:
        super().reset_stats()
        self._low_sched.reset_stats()
        self._high_sched.reset_stats()

    # -- simulation --------------------------------------------------------
    def run(self, trace: Trace,
            max_cycles: int = 50_000_000) -> "SystemResult":
        """Run one workload to completion (trace consumed, queues
        drained, engines idle) and return the system result.

        ``trace`` is any trace source implementing the record protocol
        (in-memory :class:`~repro.trace.record.Trace` or on-disk
        :class:`~repro.trace.stream.StreamedTrace`): both loops
        consume it through the core's bounded-memory view, so
        streamed and materialised runs are bit-identical.
        """
        if self._dirty:
            raise SimulationError(
                "session has already executed a trace; call reset() "
                "before running another")
        self._dirty = True

        from repro.core.system import SystemResult

        system = self.system
        system._result = SystemResult(cycles=0, committed=0, time_ns=0.0,
                                      stall_backpressure=0)
        system.core.begin(trace, record_commit_times=True)
        system.core.attach_observer(system.filter)
        clock = DualDomainClock(system.config.high_domain(),
                                system.config.low_domain())

        dense = self._prefer_dense() if self.dense is None else self.dense
        if dense:
            high_cycle = self._loop_dense(trace, clock, max_cycles)
        else:
            try:
                high_cycle = self._loop_event(trace, clock, max_cycles)
            finally:
                # Hooks are inert outside an active event-driven run
                # (direct queue use in tests, dense sessions sharing
                # the system), including after a max_cycles raise.
                self._active_low_sched = None

        self.runs_completed += 1
        return self._finalize(high_cycle, clock)

    def _prefer_dense(self) -> bool:
        """Adaptive loop policy: small all-µcore engine pools run the
        dense loop.

        With few µcores each engine is busy nearly every low cycle, so
        the scheduler's wakeup bookkeeping (wheel posts, due sets,
        fabric next-event upkeep) exceeds the dense loop's direct
        ``can_skip`` poll — the measured 4-engine regression this
        policy removes.  Hardware accelerators sleep whenever their
        queue is empty, so any HA in the mix tips the balance back to
        the event loop, as do large µcore pools (BENCH_sched.json
        tracks both points).
        """
        from repro.core.accelerator import HardwareAccelerator
        ucores = 0
        for engine in self.system.engines:
            if isinstance(engine, HardwareAccelerator):
                return False
            ucores += 1
        return 0 < ucores < 8

    # -- the reference dense loop -----------------------------------------
    def _loop_dense(self, trace: Trace, clock: DualDomainClock,
                    max_cycles: int) -> int:
        """Tick every component every cycle (the pre-scheduler loop)."""
        system = self.system
        core = system.core
        high_cycle = 0
        low_cycle = 0
        cdc = system.cdc
        multicast = system.multicast
        noc = system.noc
        engines = system.engines
        controllers = system.controllers
        input_queues = [c.input_queue for c in controllers]

        while True:
            core.step(high_cycle)
            self._step_mapper(high_cycle, clock.slow_cycle)

            if clock.tick():
                low_cycle = clock.slow_cycle
                system._now_ns = clock.time_ns
                cdc.note_cycle(low_cycle)
                while not multicast.busy:
                    item = cdc.pop(low_cycle)
                    if item is None:
                        break
                    multicast.submit(*item)
                multicast.step(low_cycle)
                for ctrl in controllers:
                    outgoing = ctrl.take_outgoing()
                    if outgoing is not None:
                        noc.send(ctrl.engine_id, outgoing[0],
                                 outgoing[1], low_cycle)
                noc.step(low_cycle)
                for queue in input_queues:
                    queue.note_cycle()
                for engine in engines:
                    if engine.can_skip():
                        self.stat_engine_ticks_skipped += 1
                    else:
                        engine.tick(low_cycle)

            high_cycle += 1
            if core.done and high_cycle % self.DRAIN_POLL_INTERVAL == 0 \
                    and self._drained(low_cycle):
                break
            if high_cycle >= max_cycles:
                raise self._undrained_error(trace, max_cycles, low_cycle)
        return high_cycle

    # -- the event-driven loop ---------------------------------------------
    def _loop_event(self, trace: Trace, clock: DualDomainClock,
                    max_cycles: int) -> int:
        """Schedule wakeups instead of polling.

        While the core executes, it (and the mapper slice) step every
        high cycle as before, but the low-domain block runs only on
        slow edges with a due event — a skipped edge is provably the
        dense loop's all-idle cycle.  Once the core is done and the
        mapper has nothing left, the high domain fast-forwards in
        whole slow-cycle strides from event to event; the dense loop's
        every-8th-cycle drain poll becomes a high-domain scheduler
        event posted only while the system reports drained, so break
        cycles (and therefore ``SystemResult.cycles``) stay
        bit-identical.
        """
        system = self.system
        core = system.core
        cdc = system.cdc
        event_filter = system.filter
        low_sched = self._low_sched
        high_sched = self._high_sched
        low_sched.reset()
        high_sched.reset()
        self._active_low_sched = low_sched
        self._fabric_next = self._NEVER
        self._woken.clear()
        self._busy_ctrls.clear()

        # Seed: every engine starts runnable; the fabric starts empty.
        low_sched.arm_many(0, system.engines)

        high_cycle = 0
        # -- phase 1: the core is executing --------------------------------
        # The high domain steps the core every cycle it does real work;
        # only the low-domain block is event-gated.  The drain break
        # cannot fire before the core is done, so the bottom of the
        # dense iteration reduces to the done/max checks.  Provable
        # core-stall windows (fetch stall, full ROB, blocked LSQ,
        # post-trace ROB drain — stall_window's contract) are batch
        # accounted and fast-forwarded from low-domain event to event,
        # with the same statistics the dense loop would accrue cycle by
        # cycle.
        low_due_at = low_sched.due_at
        clock_tick = clock.tick
        core_step = core.step
        while True:
            if not event_filter.pending and not cdc.full:
                # Nothing can commit or dispatch until the window ends,
                # and with no buffered packets the mapper slice is a
                # no-op, so only low-domain events bound the jump.
                window = core.stall_window(high_cycle)
                if window is not None:
                    stop_fast = min(window[0], max_cycles)
                    if stop_fast > high_cycle + 1:
                        next_evt = low_sched.next_due_cycle(
                            clock.slow_cycle)
                        if self._fabric_next < (
                                self._NEVER if next_evt is None
                                else next_evt):
                            next_evt = self._fabric_next
                        if next_evt is not None \
                                and next_evt <= clock.slow_cycle:
                            next_evt = clock.slow_cycle + 1
                        before_fast = clock.fast_cycle
                        before_slow = clock.slow_cycle
                        on_edge = clock.advance_to(stop_fast, next_evt)
                        skipped = clock.fast_cycle - before_fast
                        if skipped:
                            core.skip_stalls(high_cycle, clock.fast_cycle,
                                             window[1])
                            self.stat_high_cycles_fastforwarded += skipped
                            self.stat_low_cycles_skipped += (
                                clock.slow_cycle - before_slow
                                - (1 if on_edge else 0))
                            high_cycle = clock.fast_cycle
                            if on_edge:
                                self._low_tick(clock.slow_cycle, clock)
                            if high_cycle >= max_cycles:
                                raise self._undrained_error(
                                    trace, max_cycles, clock.slow_cycle)
                            continue
            core_step(high_cycle)
            # The mapper slice is a provable no-op when the lane FIFOs
            # are empty and the CDC has space — except the dense loop's
            # blocked-cycle count while the CDC is full, reproduced
            # here.  (With no pending packets no lane FIFO is full, so
            # the arbiter's full-cycle statistic cannot fire either.)
            if cdc.full:
                self.stat_mapper_blocked += 1
            elif event_filter.pending:
                self._step_mapper(high_cycle, clock.slow_cycle)
            if clock_tick():
                low_cycle = clock.slow_cycle
                if self._fabric_next <= low_cycle \
                        or low_due_at(low_cycle):
                    self._low_tick(low_cycle, clock)
                else:
                    self.stat_low_cycles_skipped += 1
            high_cycle += 1
            if core.done:
                break
            if high_cycle >= max_cycles:
                raise self._undrained_error(trace, max_cycles,
                                           clock.slow_cycle)

        # -- phase 2: draining the fabric ----------------------------------
        # The dense loop's bottom-of-iteration checks move to the top
        # (the cycle just completed above, or below on each pass), so
        # fast-forward jumps land exactly on the cycles the dense loop
        # would have inspected.
        while True:
            if high_cycle % self.DRAIN_POLL_INTERVAL == 0 \
                    and self._drained(clock.slow_cycle):
                break
            if high_cycle >= max_cycles:
                raise self._undrained_error(trace, max_cycles,
                                           clock.slow_cycle)

            if (not event_filter.pending and not cdc.full
                    and core.quiescent_at(high_cycle)):
                # Core and mapper are provably no-ops: fast-forward to
                # the next low-domain event or drain-poll boundary.
                if self._drained(clock.slow_cycle):
                    high_sched.wake(self._next_drain_poll(high_cycle),
                                    self)
                poll = high_sched.next_due_cycle(high_cycle)
                stop_fast = max_cycles if poll is None \
                    else min(poll, max_cycles)
                next_evt = low_sched.next_due_cycle(clock.slow_cycle)
                if self._fabric_next < (self._NEVER if next_evt is None
                                        else next_evt):
                    next_evt = self._fabric_next
                if next_evt is not None and next_evt <= clock.slow_cycle:
                    next_evt = clock.slow_cycle + 1  # stale: retry next edge
                before_fast = clock.fast_cycle
                before_slow = clock.slow_cycle
                on_edge = clock.advance_to(stop_fast, next_evt)
                self.stat_high_cycles_fastforwarded += \
                    clock.fast_cycle - before_fast
                self.stat_low_cycles_skipped += (
                    clock.slow_cycle - before_slow - (1 if on_edge else 0))
                high_cycle = clock.fast_cycle
                if on_edge:
                    self._low_tick(clock.slow_cycle, clock)
                high_sched.pop_due(high_cycle)  # consume passed polls
                continue  # drain/max checks at the top

            core.step(high_cycle)
            if cdc.full:
                self.stat_mapper_blocked += 1
            elif event_filter.pending:
                self._step_mapper(high_cycle, clock.slow_cycle)
            if clock.tick():
                low_cycle = clock.slow_cycle
                if self._fabric_next <= low_cycle \
                        or low_sched.due_at(low_cycle):
                    self._low_tick(low_cycle, clock)
                else:
                    self.stat_low_cycles_skipped += 1
            high_cycle += 1
        return high_cycle

    def _next_drain_poll(self, high_cycle: int) -> int:
        """First drain-poll boundary strictly after ``high_cycle``."""
        interval = self.DRAIN_POLL_INTERVAL
        return (high_cycle // interval + 1) * interval

    def _low_tick(self, low_cycle: int, clock: DualDomainClock) -> None:
        """One executed low-domain cycle.

        Identical to the dense loop's low block except that the engine
        sweep ticks only engines with a due or freshly-posted wakeup —
        everything else is asleep in the wheel, not re-polled.
        """
        system = self.system
        sched = self._low_sched
        system._now_ns = clock.time_ns
        due_list = sched.pop_due(low_cycle)

        cdc = system.cdc
        multicast = system.multicast
        noc = system.noc
        cdc.note_cycle(low_cycle)
        while not multicast.busy:
            item = cdc.pop(low_cycle)
            if item is None:
                break
            multicast.submit(*item)
        multicast.step(low_cycle)
        # Visit only busy controllers (outgoing words to drain, or a
        # full input queue accruing back-pressure statistics): the
        # hooks add controllers on the transitions, this pass prunes
        # the ones that went idle.  Any other controller's dense-loop
        # turn (take_outgoing on an empty queue, note_cycle on a
        # non-full one) is a provable no-op.  Multi-controller cycles
        # scan in controller order because concurrent NoC sends claim
        # links in send order.  (note_cycle may run before noc.step:
        # deliveries touch only peer queues, never the input occupancy
        # it samples.)
        busy = self._busy_ctrls
        if busy:
            if len(busy) == 1:
                scan = list(busy)
            else:
                scan = [c for c in system.controllers if c in busy]
            for ctrl in scan:
                outgoing = ctrl.take_outgoing()
                if outgoing is not None:
                    noc.send(ctrl.engine_id, outgoing[0], outgoing[1],
                             low_cycle)
                if not ctrl.input_queue.note_cycle() \
                        and not ctrl.output_queue:
                    del busy[ctrl]
        noc.step(low_cycle)
        fabric_next = self._NEVER
        retry = low_cycle + 1
        if multicast.draining:
            fabric_next = retry
        nxt = noc.next_event_cycle(low_cycle)
        if nxt is not None and nxt < fabric_next:
            fabric_next = nxt
        nxt = cdc.next_event_cycle(low_cycle)
        if nxt is not None and nxt < fabric_next:
            fabric_next = nxt

        # Pushes during the fabric sub-steps above woke their blocked
        # consumers for this very cycle; fold those in before the
        # engine sweep (the dense loop's ordering: fabric, then
        # engines).
        woken = self._woken
        if woken:
            due_list += woken
            woken.clear()
        running = sched.running
        ticked = []
        if due_list:
            due = set(due_list)
            for engine in system.engines:
                if engine in running or engine in due:
                    engine.tick(low_cycle)
                    ticked.append(engine)
                else:
                    self.stat_engine_ticks_skipped += 1
        else:
            for engine in system.engines:
                if engine in running:
                    engine.tick(low_cycle)
                    ticked.append(engine)
                else:
                    self.stat_engine_ticks_skipped += 1
        # An engine's own schedule changes only when it ticks.
        sched.arm_many(low_cycle, ticked)
        # Engines may have pushed outgoing words during the sweep
        # (busy_hook additions): the fabric must run next cycle even
        # if every pusher then goes to sleep.
        if busy and retry < fabric_next:
            fabric_next = retry
        self._fabric_next = fabric_next

    # -- shared pieces ------------------------------------------------------
    def _step_mapper(self, high_cycle: int, slow_cycle: int) -> None:
        """High-domain mapper slice: arbiter → allocator → CDC.

        One packet per cycle in the paper's scalar design; the
        superscalar variant (``mapper_width`` > 1, §III-C footnote 5)
        moves several, bounded by CDC space.  Under the event-driven
        loop each CDC push schedules the FIFO's synchroniser-expiry
        wakeup (the fabric's inline next-event cycle)."""
        system = self.system
        cdc = system.cdc
        sched = self._active_low_sched
        for _ in range(system.config.mapper_width):
            if cdc.full:
                self.stat_mapper_blocked += 1
                return
            packet = system.filter.arbitrate(high_cycle)
            if packet is None:
                return
            mask = system.allocator.route(packet)
            if mask:
                cdc.push(packet, mask, slow_cycle)
                if sched is not None:
                    nxt = cdc.next_event_cycle(slow_cycle)
                    if nxt < self._fabric_next:
                        self._fabric_next = nxt

    def _drained(self, low_cycle: int) -> bool:
        system = self.system
        if system.filter.pending:
            return False
        if not system.cdc.empty or system.multicast.draining:
            return False
        if not system.noc.idle:
            return False
        for ctrl in system.controllers:
            if ctrl.output_queue or not ctrl.input_queue.empty:
                return False
        return all(engine.idle_at(low_cycle)
                   for engine in system.engines)

    def _undrained_error(self, trace: Trace, max_cycles: int,
                         low_cycle: int) -> SimulationError:
        """A max_cycles timeout that names what is still undrained."""
        return SimulationError(
            f"system did not drain within {max_cycles} cycles "
            f"(trace {trace.name}, seed {trace.seed}): "
            + self._undrained_report(low_cycle))

    def _undrained_report(self, low_cycle: int) -> str:
        """Which components still hold work (drain diagnostics)."""
        system = self.system
        parts: list[str] = []
        if not system.core.done:
            parts.append("main core still executing the trace")
        pending = system.filter.pending
        if pending:
            parts.append(f"event filter holding {pending} packets "
                         f"(lane occupancy {system.filter.fifo_occupancy()})")
        if not system.cdc.empty:
            parts.append(f"CDC FIFO holding {len(system.cdc)} entries")
        if system.multicast.draining:
            parts.append(f"multicast channel draining "
                         f"{system.multicast.pending_count} packets")
        if not system.noc.idle:
            parts.append(
                f"NoC carrying {system.noc.in_flight_count} words")
        for ctrl in system.controllers:
            occupancy = (len(ctrl.input_queue), len(ctrl.peer_queue),
                         len(ctrl.output_queue))
            if any(occupancy):
                parts.append(
                    f"engine {ctrl.engine_id} queues "
                    f"input/peer/output={occupancy}")
        busy = [f"{engine.name}{engine.engine_id}"
                for engine in system.engines
                if not engine.idle_at(low_cycle)]
        if busy:
            parts.append("busy engines: " + ", ".join(busy))
        if not parts:
            parts.append("all components report drained")
        return "; ".join(parts)

    def _finalize(self, high_cycle: int,
                  clock: DualDomainClock) -> "SystemResult":
        """Assemble the result from the components' uniform stats."""
        system = self.system
        result = system._result
        assert result is not None
        core_result = system.core.result
        filter_stats = system.filter.stats()
        result.cycles = high_cycle
        result.committed = core_result.committed
        result.time_ns = clock.time_ns
        result.stall_backpressure = core_result.stall_backpressure
        result.filter_full_cycles = filter_stats["full_cycles"]
        result.mapper_blocked_cycles = self.stat_mapper_blocked
        result.cdc_full_cycles = system.cdc.stats()["full_cycles"]
        result.msgq_full_cycles = sum(
            c.stats()["input_full_cycles"] for c in system.controllers)
        result.packets_filtered = filter_stats["valid_packets"]
        result.packets_delivered = system.multicast.stats()["delivered"]
        result.engine_instructions = sum(
            e.stats().get("instructions", 0) for e in system.engines)
        result.prf_preemptions = system.forwarding.stats()["prf_reads"]
        result.noc_words = system.noc.stats()["sent"]
        system._result = None
        return result
