"""The µcore inner tick (DESIGN.md: hotpath layer).

This module is THE implementation of :meth:`MicroCore.tick` —
``repro.ucore.core`` calls :func:`ucore_tick` with its state flattened
into plain ``list[int]`` arrays, so the per-instruction path touches
only local ints and list slots.

Extraction rules (what may live here):

* **Flat state only.** Mutable per-engine state lives in ``st``
  (``list[int]``, indexed by the ``ST_*``/slot constants below) and
  ``regs`` (``list[int]``, the 32 architectural registers); the decoded
  program is one flat ``list[int]`` with :data:`STRIDE` fields per pc
  (see :mod:`repro.hotpath.decode`).  No dataclasses, no dicts, no
  allocation on the per-tick path.
* **Escape calls for shared components.** Caches, TLB, functional
  memory, the queue controller, the ISAX cost model and the alert
  callback stay objects reached through ``mc`` (the owning
  :class:`MicroCore`) — they carry their own statistics and are shared
  across engines, so flattening them would fork semantics.  Escape
  calls are not on the hot path for the common ALU/branch
  instructions.
* **Plain ints and lists.** Module-level ``Final`` int constants,
  ``list[int]`` arguments, no closures, no ``*args``, no decorators.

The op codes below are this module's private dense encoding of
:class:`repro.ucore.isa.Op`; :mod:`repro.hotpath.decode` builds the
mapping by name, so the enum stays the single source of truth for the
instruction set.
"""

from typing import Any, Final

from repro.errors import SimulationError

MASK64: Final = (1 << 64) - 1
_SIGN64: Final = 1 << 63

# -- st slots (one list[int] per engine) --------------------------------
PC: Final = 0
HALTED: Final = 1
BLOCKED: Final = 2
STALL_UNTIL: Final = 3
PREV_QOP: Final = 4
SINCE_EFFECT: Final = 5
BLOCKED_ON: Final = 6           # WAIT_* code, 0 = not blocked
STAT_INSTR: Final = 7
STAT_STALL: Final = 8
STAT_POPS: Final = 9
STAT_ALERTS: Final = 10
ENGINE_ID: Final = 11
NUM_ENGINES: Final = 12         # max(1, config.num_engines), for QDEST
PROG_LEN: Final = 13
L2_LAT: Final = 14              # config.ucore_l2_latency (L1D fill)
ST_LEN: Final = 15

# -- blocked-on codes (st[BLOCKED_ON]) ----------------------------------
WAIT_NONE: Final = 0
WAIT_INPUT: Final = 1
WAIT_PEER: Final = 2
WAIT_OUTPUT: Final = 3

# -- decoded-program layout (STRIDE ints per pc) ------------------------
STRIDE: Final = 8
F_OP: Final = 0
F_KIND: Final = 1
F_RD: Final = 2
F_RS1: Final = 3
F_RS2: Final = 4
F_IMM: Final = 5
F_MASK: Final = 6               # bitmask of the NEXT instr's read regs
F_SIZE: Final = 7               # memory access size (loads/stores)

# -- dispatch kinds (F_KIND) --------------------------------------------
K_OTHER: Final = 0
K_QUEUE: Final = 1
K_LOAD: Final = 2
K_STORE: Final = 3
K_BRANCH: Final = 4

# -- op codes (dense encoding of repro.ucore.isa.Op, mapped by name) ----
OP_ADD: Final = 0
OP_SUB: Final = 1
OP_AND: Final = 2
OP_OR: Final = 3
OP_XOR: Final = 4
OP_SLL: Final = 5
OP_SRL: Final = 6
OP_SRA: Final = 7
OP_SLT: Final = 8
OP_SLTU: Final = 9
OP_MUL: Final = 10
OP_DIV: Final = 11
OP_ADDI: Final = 12
OP_ANDI: Final = 13
OP_ORI: Final = 14
OP_XORI: Final = 15
OP_SLLI: Final = 16
OP_SRLI: Final = 17
OP_SLTI: Final = 18
OP_LI: Final = 19
OP_LD: Final = 20
OP_LW: Final = 21
OP_LB: Final = 22
OP_LBU: Final = 23
OP_SD: Final = 24
OP_SW: Final = 25
OP_SB: Final = 26
OP_BEQ: Final = 27
OP_BNE: Final = 28
OP_BLT: Final = 29
OP_BGE: Final = 30
OP_BLTU: Final = 31
OP_BGEU: Final = 32
OP_JAL: Final = 33
OP_JALR: Final = 34
OP_QCOUNT: Final = 35
OP_QTOP: Final = 36
OP_QPOP: Final = 37
OP_QRECENT: Final = 38
OP_QPUSH: Final = 39
OP_QDEST: Final = 40
OP_PCOUNT: Final = 41
OP_PPOP: Final = 42
OP_ALERT: Final = 43
OP_ALERTI: Final = 44
OP_CSRR: Final = 45
OP_NOP: Final = 46
OP_HALT: Final = 47


def _sx(value: int) -> int:
    """Sign-extend a 64-bit value to a Python int."""
    return (value ^ _SIGN64) - _SIGN64


def _raise_alert(mc: Any, st: "list[int]", code: int,
                 low_cycle: int) -> None:
    st[STAT_ALERTS] += 1
    st[SINCE_EFFECT] = 0
    cb = mc.on_alert
    if cb is not None:
        cb(st[ENGINE_ID], code, low_cycle)


def _execute_load(mc: Any, st: "list[int]", regs: "list[int]",
                  prog: "list[int]", pc: int, base: int, op: int,
                  low_cycle: int) -> int:
    addr = (regs[prog[base + F_RS1]] + prog[base + F_IMM]) & MASK64
    size = prog[base + F_SIZE]
    data = mc.memory.data
    if op == OP_LB:
        value = data.load_signed(addr, size) & MASK64
    else:
        value = data.load(addr, size)
    rd = prog[base + F_RD]
    if rd:
        regs[rd] = value
    cost = 1 + mc.tlb.translate(addr)
    hit, mshr = mc.l1d.lookup(addr, low_cycle, st[L2_LAT])
    cost += mshr
    if not hit:
        cost += mc.memory.miss_latency(addr, low_cycle)
    if (prog[base + F_MASK] >> rd) & 1:
        cost += 1  # load-use bubble
    st[PC] = pc + 1
    return cost


def _execute_store(mc: Any, st: "list[int]", regs: "list[int]",
                   prog: "list[int]", pc: int, base: int,
                   low_cycle: int) -> int:
    addr = (regs[prog[base + F_RS1]] + prog[base + F_IMM]) & MASK64
    mc.memory.data.store(addr, regs[prog[base + F_RS2]],
                         prog[base + F_SIZE])
    cost = 1 + mc.tlb.translate(addr)
    # Write-allocate: a missing line is fetched before the write.
    hit, mshr = mc.l1d.lookup(addr, low_cycle, st[L2_LAT])
    cost += mshr
    if not hit:
        cost += mc.memory.miss_latency(addr, low_cycle)
    st[SINCE_EFFECT] = 0
    st[PC] = pc + 1
    return cost


def _execute_queue(mc: Any, st: "list[int]", regs: "list[int]",
                   prog: "list[int]", pc: int, base: int,
                   op: int) -> int:
    ctrl = mc.controller
    result = 0
    wb = False

    if op == OP_QCOUNT:
        result = ctrl.count(prog[base + F_IMM])
        wb = True
    elif op == OP_QTOP:
        queue = ctrl.input_queue
        if queue.empty:
            st[BLOCKED_ON] = WAIT_INPUT
            return 0
        result = queue.top(prog[base + F_IMM])
        wb = True
    elif op == OP_QPOP:
        queue = ctrl.input_queue
        if queue.empty:
            st[BLOCKED_ON] = WAIT_INPUT
            return 0
        result = queue.pop(prog[base + F_IMM])
        wb = True
        st[STAT_POPS] += 1
        st[SINCE_EFFECT] = 0
    elif op == OP_QRECENT:
        result = ctrl.input_queue.recent(prog[base + F_IMM])
        wb = True
    elif op == OP_PCOUNT:
        result = len(ctrl.peer_queue)
        wb = True
    elif op == OP_PPOP:
        queue = ctrl.peer_queue
        if queue.empty:
            st[BLOCKED_ON] = WAIT_PEER
            return 0
        result = queue.pop()
        wb = True
        st[SINCE_EFFECT] = 0
    elif op == OP_QPUSH:
        if not ctrl.push(regs[prog[base + F_RS1]]):
            st[BLOCKED_ON] = WAIT_OUTPUT
            return 0
        st[SINCE_EFFECT] = 0
    elif op == OP_QDEST:
        ctrl.dest_register = regs[prog[base + F_RS1]] % st[NUM_ENGINES]
    else:  # pragma: no cover - exhaustive
        raise SimulationError(f"unhandled queue op code {op}")

    rd = prog[base + F_RD]
    if wb and rd:
        regs[rd] = result

    used_next = wb and ((prog[base + F_MASK] >> rd) & 1) != 0
    cost = mc.isax.cost(result_used_next=used_next,
                        back_to_back=st[PREV_QOP] == 1)
    st[PC] = pc + 1
    return cost


def _execute(mc: Any, st: "list[int]", regs: "list[int]",
             prog: "list[int]", pc: int, base: int, op: int, kind: int,
             low_cycle: int) -> int:
    """Execute one instruction; return its cycle cost, or 0 when the
    instruction is blocked and must retry."""
    if kind == K_QUEUE:
        return _execute_queue(mc, st, regs, prog, pc, base, op)
    if kind == K_LOAD:
        return _execute_load(mc, st, regs, prog, pc, base, op, low_cycle)
    if kind == K_STORE:
        return _execute_store(mc, st, regs, prog, pc, base, low_cycle)

    r1 = regs[prog[base + F_RS1]]
    r2 = regs[prog[base + F_RS2]]

    if kind == K_BRANCH:
        if op == OP_BEQ:
            taken = r1 == r2
        elif op == OP_BNE:
            taken = r1 != r2
        elif op == OP_BLT:
            taken = _sx(r1) < _sx(r2)
        elif op == OP_BGE:
            taken = _sx(r1) >= _sx(r2)
        elif op == OP_BLTU:
            taken = r1 < r2
        else:  # BGEU
            taken = r1 >= r2
        if taken:
            st[PC] = prog[base + F_IMM]
            return 2  # redirect bubble
        st[PC] = pc + 1
        return 1

    cost = 1
    if op == OP_ADD:
        result = (r1 + r2) & MASK64
    elif op == OP_SUB:
        result = (r1 - r2) & MASK64
    elif op == OP_AND:
        result = r1 & r2
    elif op == OP_OR:
        result = r1 | r2
    elif op == OP_XOR:
        result = r1 ^ r2
    elif op == OP_SLL:
        result = (r1 << (r2 & 63)) & MASK64
    elif op == OP_SRL:
        result = r1 >> (r2 & 63)
    elif op == OP_SRA:
        result = (_sx(r1) >> (r2 & 63)) & MASK64
    elif op == OP_SLT:
        result = 1 if _sx(r1) < _sx(r2) else 0
    elif op == OP_SLTU:
        result = 1 if r1 < r2 else 0
    elif op == OP_MUL:
        result = (r1 * r2) & MASK64
        cost = 2
    elif op == OP_DIV:
        result = (r1 // r2) & MASK64 if r2 else MASK64
        cost = 8
    elif op == OP_ADDI:
        result = (r1 + prog[base + F_IMM]) & MASK64
    elif op == OP_ANDI:
        result = r1 & (prog[base + F_IMM] & MASK64)
    elif op == OP_ORI:
        result = r1 | (prog[base + F_IMM] & MASK64)
    elif op == OP_XORI:
        result = r1 ^ (prog[base + F_IMM] & MASK64)
    elif op == OP_SLLI:
        result = (r1 << (prog[base + F_IMM] & 63)) & MASK64
    elif op == OP_SRLI:
        result = r1 >> (prog[base + F_IMM] & 63)
    elif op == OP_SLTI:
        result = 1 if _sx(r1) < prog[base + F_IMM] else 0
    elif op == OP_LI:
        result = prog[base + F_IMM] & MASK64
    elif op == OP_JAL:
        rd = prog[base + F_RD]
        if rd:
            regs[rd] = pc + 1
        st[PC] = prog[base + F_IMM]
        return 2
    elif op == OP_JALR:
        target = (r1 + prog[base + F_IMM]) & MASK64
        rd = prog[base + F_RD]
        if rd:
            regs[rd] = pc + 1
        st[PC] = target
        return 2
    elif op == OP_ALERT:
        _raise_alert(mc, st, r1, low_cycle)
        st[PC] = pc + 1
        return 1
    elif op == OP_ALERTI:
        _raise_alert(mc, st, prog[base + F_IMM], low_cycle)
        st[PC] = pc + 1
        return 1
    elif op == OP_CSRR:
        result = st[ENGINE_ID]
    elif op == OP_NOP:
        st[PC] = pc + 1
        return 1
    elif op == OP_HALT:
        st[HALTED] = 1
        return 1
    else:  # pragma: no cover - exhaustive
        raise SimulationError(f"unhandled op code {op}")

    rd = prog[base + F_RD]
    if rd:
        regs[rd] = result
        if op == OP_MUL and (prog[base + F_MASK] >> rd) & 1:
            cost += 1
    st[PC] = pc + 1
    return cost


def ucore_tick(mc: Any, st: "list[int]", regs: "list[int]",
               prog: "list[int]", low_cycle: int) -> None:
    """Advance at most one instruction at this low-domain cycle.

    Faithful port of the pre-hotpath ``MicroCore.tick``: the cost/stall
    accounting, blocked-retry behaviour and the pre-execute capture of
    the queue-op kind (for ``back_to_back`` ISAX costing) are
    bit-identical.
    """
    if st[HALTED]:
        return
    if low_cycle < st[STALL_UNTIL]:
        st[STAT_STALL] += 1
        return
    pc = st[PC]
    if pc >= st[PROG_LEN] or pc < 0:
        st[HALTED] = 1
        return
    base = pc * STRIDE
    op = prog[base + F_OP]
    kind = prog[base + F_KIND]
    cost = _execute(mc, st, regs, prog, pc, base, op, kind, low_cycle)
    if cost == 0:
        # Blocked: retry the same instruction next cycle.
        st[BLOCKED] = 1
        st[STAT_STALL] += 1
        st[STALL_UNTIL] = low_cycle + 1
        return
    st[BLOCKED] = 0
    st[BLOCKED_ON] = WAIT_NONE
    st[STAT_INSTR] += 1
    st[SINCE_EFFECT] += 1
    st[STALL_UNTIL] = low_cycle + cost
    st[PREV_QOP] = 1 if kind == K_QUEUE else 0
