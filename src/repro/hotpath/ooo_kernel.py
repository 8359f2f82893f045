"""The OoO-core cycle step (DESIGN.md: hotpath layer).

This module is THE implementation of :meth:`MainCore.step` —
``repro.ooo.core`` calls :func:`core_step` with its ROB, LSQ occupancy
and register-ready scoreboard flattened into preallocated arrays.

Flattening map (vs the pre-hotpath object graph):

* ``ReorderBuffer`` (deque of ``RobEntry``) → two preallocated rings:
  ``rob_rec`` (record references, cleared on commit) and ``rob_done``
  (completion cycles), with head index / count in ``st``;
* ``LoadStoreQueues`` → two occupancy counters in ``st`` (the classes
  survive in :mod:`repro.ooo` for direct unit testing);
* ``_reg_ready: dict[int, int]`` → a flat ``list[int]`` indexed by
  architectural register, 0 meaning "never written" (equivalent to a
  dict miss: any real completion cycle is ≥ 1);
* core parameters (width, capacities, latencies) → ``st`` constants
  filled at ``begin()``.

Escape calls — the branch predictor, memory hierarchy, PRF read-port
arbiter, FU pool, the commit observer (FireGuard's event filter) and
``core.result`` — stay objects reached through ``core``:
they are shared with the rest of the system and carry their own
statistics.  Same rules as :mod:`repro.hotpath.ucore_kernel`: flat
ints, no allocation on the per-cycle path.
"""

from typing import Any, Final

from repro.errors import SimulationError
from repro.isa.opcodes import InstrClass

# -- st slots (one list[int] per core) ----------------------------------
NEXT_DISPATCH: Final = 0
FETCH_STALL_UNTIL: Final = 1
LAST_FETCH_LINE: Final = 2
IN_FLIGHT: Final = 3
STALL_REDIRECT: Final = 4       # 1 = fetch stall is a redirect refill
ROB_HEAD: Final = 5
ROB_COUNT: Final = 6
LDQ_COUNT: Final = 7
STQ_COUNT: Final = 8
RECORD_TIMES: Final = 9         # 1 = record per-attack commit times
TRACE_LEN: Final = 10
ROB_CAP: Final = 11
LDQ_CAP: Final = 12
STQ_CAP: Final = 13
WIDTH: Final = 14
REDIRECT_PENALTY: Final = 15
LAT_STORE: Final = 16
L2_HIT: Final = 17              # L2 hit latency (store L1D fill)
L1I_HIT: Final = 18             # L1I hit latency (fetch stall floor)
ST_LEN: Final = 19

LINE_SHIFT: Final = 6

# Enum members bound once at import: identity checks against these are
# exactly the `record.iclass is InstrClass.X` tests of the pre-hotpath
# code, without re-resolving the enum attribute per record.
IC_LOAD: Final[Any] = InstrClass.LOAD
IC_STORE: Final[Any] = InstrClass.STORE
IC_BRANCH: Final[Any] = InstrClass.BRANCH
IC_JUMP: Final[Any] = InstrClass.JUMP
IC_CALL: Final[Any] = InstrClass.CALL
IC_RET: Final[Any] = InstrClass.RET


def _commit(core: Any, st: "list[int]", rob_rec: "list[Any]",
            rob_done: "list[int]", cycle: int) -> None:
    observer = core._observer
    width = st[WIDTH]
    if observer is not None:
        # A filter narrower than the core bounds commits per cycle
        # (Fig 9's 1- and 2-wide configurations).
        lanes = observer.lanes
        if lanes < width:
            width = lanes
    result = core.result
    head = st[ROB_HEAD]
    count = st[ROB_COUNT]
    cap = st[ROB_CAP]
    committed = 0
    while committed < width:
        if count == 0 or rob_done[head] > cycle:
            break
        record = rob_rec[head]
        if observer is not None and not observer.offer(
                record, committed, cycle):
            result.stall_backpressure += 1
            break
        iclass = record.iclass
        if iclass is IC_LOAD:
            if st[LDQ_COUNT] == 0:  # pragma: no cover - invariant
                raise SimulationError("LDQ commit underflow")
            st[LDQ_COUNT] -= 1
        elif iclass is IC_STORE:
            if st[STQ_COUNT] == 0:  # pragma: no cover - invariant
                raise SimulationError("STQ commit underflow")
            st[STQ_COUNT] -= 1
        rob_rec[head] = None
        head += 1
        if head == cap:
            head = 0
        count -= 1
        st[IN_FLIGHT] -= 1
        result.committed += 1
        if st[RECORD_TIMES]:
            attack_id = record.attack_id
            if attack_id is not None:
                result.commit_times[attack_id] = cycle
        committed += 1
    st[ROB_HEAD] = head
    st[ROB_COUNT] = count


def _fetch_line(core: Any, st: "list[int]", pc: int, cycle: int) -> None:
    line = pc >> LINE_SHIFT
    last = st[LAST_FETCH_LINE]
    if line == last:
        return
    sequential = line == last + 1
    st[LAST_FETCH_LINE] = line
    access = core.hierarchy.access_instr(pc, cycle)
    hit_latency = st[L1I_HIT]
    latency = access.latency
    if latency > hit_latency and not sequential:
        # Discontinuous fetch to a missing line stalls the front end;
        # sequential misses are hidden by next-line prefetch.
        new_stall = cycle + latency - hit_latency
        if new_stall > st[FETCH_STALL_UNTIL]:
            st[FETCH_STALL_UNTIL] = new_stall
            st[STALL_REDIRECT] = 0


def _schedule(core: Any, st: "list[int]", reg_ready: "list[int]",
              record: Any, iclass: Any, cycle: int) -> int:
    """Compute the completion cycle of a dispatched instruction."""
    ready = cycle + 1
    srcs = record.srcs
    n = len(reg_ready)
    for src in srcs:
        if src and src < n:  # x0 is always ready
            src_ready = reg_ready[src]
            if src_ready > ready:
                ready = src_ready

    # PRF read ports (shared with the forwarding channel).
    ready = core.prf.acquire_read_ports(ready, len(srcs))
    issue, latency = core.fu_pool.acquire(iclass, ready)

    if iclass is IC_LOAD:
        latency = core.hierarchy.access_data(record.mem_addr,
                                             issue).latency
    elif iclass is IC_STORE:
        # Store data is written back at commit; address translation
        # happens at issue.  Charge translation only.
        latency = st[LAT_STORE]
        latency += core.hierarchy.dtlb.translate(record.mem_addr)
        core.hierarchy.l1d.lookup(record.mem_addr, issue, st[L2_HIT])

    completion = issue + latency
    dst = record.dst
    if dst:
        while dst >= n:
            reg_ready.append(0)
            n += 1
        reg_ready[dst] = completion
    return completion


def _dispatch(core: Any, st: "list[int]", rob_rec: "list[Any]",
              rob_done: "list[int]", reg_ready: "list[int]",
              trace: Any, cycle: int) -> None:
    result = core.result
    if cycle < st[FETCH_STALL_UNTIL]:
        result.stall_fetch += 1
        if st[STALL_REDIRECT]:
            result.stall_fetch_redirect += 1
        else:
            result.stall_fetch_icache += 1
        return
    nd = st[NEXT_DISPATCH]
    trace_len = st[TRACE_LEN]
    cap = st[ROB_CAP]
    width = st[WIDTH]
    for _ in range(width):
        if nd >= trace_len:
            break
        if st[ROB_COUNT] == cap:
            result.stall_rob_full += 1
            break
        record = trace[nd]
        iclass = record.iclass
        if iclass is IC_LOAD:
            if st[LDQ_COUNT] >= st[LDQ_CAP]:
                result.stall_lsq_full += 1
                break
        elif iclass is IC_STORE:
            if st[STQ_COUNT] >= st[STQ_CAP]:
                result.stall_lsq_full += 1
                break

        _fetch_line(core, st, record.pc, cycle)
        completion = _schedule(core, st, reg_ready, record, iclass,
                               cycle)
        tail = st[ROB_HEAD] + st[ROB_COUNT]
        if tail >= cap:
            tail -= cap
        rob_rec[tail] = record
        rob_done[tail] = completion
        st[ROB_COUNT] += 1
        if iclass is IC_LOAD:
            st[LDQ_COUNT] += 1
        elif iclass is IC_STORE:
            st[STQ_COUNT] += 1
        st[IN_FLIGHT] += 1
        nd += 1

        if (iclass is IC_BRANCH or iclass is IC_JUMP
                or iclass is IC_CALL or iclass is IC_RET):
            mispredicted = core.predictor.predict_and_train(
                iclass, record.pc, record.taken, record.target)
            if mispredicted:
                result.mispredicts += 1
                st[FETCH_STALL_UNTIL] = (completion
                                         + st[REDIRECT_PENALTY])
                st[STALL_REDIRECT] = 1
                break  # redirect ends this dispatch group
    st[NEXT_DISPATCH] = nd


def core_step(core: Any, st: "list[int]", rob_rec: "list[Any]",
              rob_done: "list[int]", reg_ready: "list[int]",
              trace: Any, cycle: int) -> None:
    """Advance one core cycle: commit, then dispatch.

    Faithful port of the pre-hotpath ``MainCore.step`` over the
    flattened state; every counter and every stall-priority decision is
    bit-identical.
    """
    _commit(core, st, rob_rec, rob_done, cycle)
    _dispatch(core, st, rob_rec, rob_done, reg_ready, trace, cycle)
    core.result.cycles = cycle + 1
