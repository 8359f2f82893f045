"""Attack injection (§IV-B).

The paper injects 50–100 erroneous inputs per workload — hijacked jump
targets, accesses to freed memory, out-of-bounds accesses — and
measures how long each guardian kernel takes to flag them.  The
injector mutates selected records of a generated trace the same way:
the *architectural* outcome changes (a return target, a memory
address), and the kernels must notice semantically.  Records are
tagged with an ``attack_id`` purely for measurement bookkeeping; the
kernels never see the tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import ConfigError, TraceError
from repro.isa.opcodes import InstrClass
from repro.trace.record import Trace

HIJACK_BASE = 0x0000_00DE_AD00_0000
OUTSIDE_BOUNDS_BASE = 0x0000_F000_0000_0000

#: Where an injection clusters its sites within the eligible window.
#: ``spread`` keeps the paper's evenly-strided sampling; the other
#: values are the adversarial corners the campaign fuzzer probes:
#: ``early`` packs attacks right after the warm-up skip, ``late``
#: packs them against the end of the trace — for scenario phases that
#: is the phase boundary, where the compositor's balancing unwind
#: returns live — and ``gap`` (out-of-bounds only, otherwise a
#: synonym for ``late``) aims at the highest-addressed live object,
#: whose redzone abuts the inter-phase heap gap.
PLACEMENTS: tuple[str, ...] = ("spread", "early", "late", "gap")


class AttackKind(Enum):
    """One injection kind per guardian kernel."""

    RET_HIJACK = auto()     # shadow stack: return target != pushed address
    OOB_ACCESS = auto()     # AddressSanitizer: access in a redzone
    UAF_ACCESS = auto()     # UaF detector: access to quarantined region
    PMC_BOUND = auto()      # PMC bounds check: access outside fence


@dataclass(frozen=True)
class AttackPlan:
    """A declarative injection request: what to inject and how much.

    Hashable and picklable, so it rides inside
    :class:`~repro.runner.spec.RunSpec` fields and scenario phases.
    """

    kind: AttackKind
    count: int
    pmc_bounds: tuple[int, int] | None = None
    placement: str = "spread"

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ConfigError("attack count must be positive")
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; "
                f"available: {PLACEMENTS}")


@dataclass(frozen=True)
class AttackSite:
    """One injected attack: where it is and what it became."""

    attack_id: int
    seq: int
    kind: AttackKind
    detail: str = ""


#: Minimum candidate spacing for the packed placements.  Alert
#: attribution looks back ``MessageQueue.ATTRIBUTION_WINDOW`` (8)
#: pops, so two attack packets inside one window would both attribute
#: to the newer id and the older site would read as undetected.
_PACKED_STRIDE = 12


def _spaced_choices(candidates: list[int], count: int,
                    trace_len: int,
                    placement: str = "spread") -> list[int]:
    """Pick ``count`` candidate indices per the placement policy:
    evenly strided across the trace by default (so the latency sample
    is not clustered in one warm/cold phase), or packed against the
    start/end of the eligible window for the adversarial corners
    (packed sites still keep :data:`_PACKED_STRIDE` candidates of
    daylight so each stays individually attributable)."""
    if not candidates:
        return []
    if len(candidates) <= count:
        return list(candidates)
    if placement in ("early", "late", "gap"):
        stride = max(1, min(_PACKED_STRIDE,
                            len(candidates) // count))
        if placement == "early":
            return list(candidates[:count * stride:stride])
        start = len(candidates) - 1 - (count - 1) * stride
        return list(candidates[start::stride])[:count]
    stride = len(candidates) / count
    return [candidates[int(i * stride)] for i in range(count)]


def inject_attacks(trace: Trace, kind: AttackKind, count: int,
                   pmc_bounds: tuple[int, int] | None = None,
                   min_seq: int = 256,
                   placement: str = "spread") -> list[AttackSite]:
    """Mutate ``trace`` in place, injecting ``count`` attacks of ``kind``.

    Returns the attack sites (for latency attribution).  ``min_seq``
    skips the trace's warm-up prefix, like the paper's steady-state
    injection.  ``placement`` positions the sites within the eligible
    window (see :data:`PLACEMENTS`).  Records already claimed by an
    earlier injection are never re-used, so plans stacked on one trace
    keep disjoint sites and exact per-attack ground truth.
    """
    if count <= 0:
        raise TraceError(f"attack count must be positive, got {count}")
    if placement not in PLACEMENTS:
        raise TraceError(f"unknown placement {placement!r}; "
                         f"available: {PLACEMENTS}")
    records = trace.records

    if kind is AttackKind.RET_HIJACK:
        candidates = [i for i, r in enumerate(records)
                      if r.iclass is InstrClass.RET and r.seq >= min_seq
                      and r.attack_id is None]
        chosen = _spaced_choices(candidates, count, len(records),
                                 placement)
        sites = []
        for attack_id, idx in enumerate(chosen):
            rec = records[idx]
            rec.target = HIJACK_BASE + attack_id * 0x40
            rec.attack_id = attack_id
            sites.append(AttackSite(attack_id, rec.seq, kind,
                                    f"target={rec.target:#x}"))
        return sites

    if kind is AttackKind.OOB_ACCESS:
        return _inject_oob(trace, count, min_seq, placement)

    if kind is AttackKind.UAF_ACCESS:
        return _inject_uaf(trace, count, min_seq, placement)

    if kind is AttackKind.PMC_BOUND:
        if pmc_bounds is None:
            raise TraceError("PMC_BOUND injection needs pmc_bounds")
        lo, hi = pmc_bounds
        candidates = [i for i, r in enumerate(records)
                      if r.is_mem and r.seq >= min_seq
                      and r.attack_id is None]
        chosen = _spaced_choices(candidates, count, len(records),
                                 placement)
        sites = []
        for attack_id, idx in enumerate(chosen):
            rec = records[idx]
            rec.mem_addr = OUTSIDE_BOUNDS_BASE + attack_id * 0x1000
            assert not lo <= rec.mem_addr < hi
            rec.attack_id = attack_id
            sites.append(AttackSite(attack_id, rec.seq, kind,
                                    f"addr={rec.mem_addr:#x}"))
        return sites

    raise TraceError(f"unknown attack kind {kind!r}")


def _inject_oob(trace: Trace, count: int, min_seq: int,
                placement: str = "spread") -> list[AttackSite]:
    """Point loads/stores just past a live object's end (into the
    redzone the ASan kernel poisons around every allocation).  The
    ``gap`` placement always picks the highest-addressed live object,
    so the poked redzone is the one bordering the compositor's
    inter-phase heap gap."""
    records = trace.records
    candidates = []
    for i, rec in enumerate(records):
        if not rec.is_mem or rec.seq < min_seq \
                or rec.attack_id is not None:
            continue
        live = [o for o in trace.objects if o.live_at(rec.seq)]
        if live:
            candidates.append(i)
    chosen = _spaced_choices(candidates, count, len(records), placement)
    sites = []
    for attack_id, idx in enumerate(chosen):
        rec = records[idx]
        live = [o for o in trace.objects if o.live_at(rec.seq)]
        if placement == "gap":
            obj = max(live, key=lambda o: o.end)
        else:
            obj = live[attack_id % len(live)]
        rec.mem_addr = obj.end + 1  # inside the 16-byte right redzone
        rec.mem_size = 1
        rec.attack_id = attack_id
        sites.append(AttackSite(attack_id, rec.seq, AttackKind.OOB_ACCESS,
                                f"addr={rec.mem_addr:#x} obj={obj.base:#x}"))
    return sites


def _synthesize_frees(trace: Trace, needed: int, min_seq: int) -> None:
    """Plant free events for live objects so use-after-free scenarios
    exist even on allocation-light workloads.

    The paper injects erroneous *behaviour* (accessing freed memory);
    when the workload itself frees too rarely, the attack scenario
    includes the free: a suitable plain-ALU instruction becomes the
    ``custom0.f1`` allocator marker for a live object.
    """
    from repro.isa.decode import decode, encode_instr
    from repro.trace.record import HeapObject

    records = trace.records
    size = 256
    # Fresh addresses past the workload's heap: the planted objects are
    # never touched by legitimate accesses.
    next_base = ((trace.heap_end + 0xFFF) & ~0xFFF) + 0x10000

    alloc_word = encode_instr("custom0.f0", rs1=10, rs2=11)
    free_word = encode_instr("custom0.f1", rs1=10)
    alloc_dec = decode(alloc_word)
    free_dec = decode(free_word)

    def _convert(idx: int, word: int, dec, base: int) -> None:
        rec = records[idx]
        rec.word = word
        rec.opcode = dec.opcode
        rec.funct3 = dec.funct3
        rec.iclass = InstrClass.CUSTOM
        rec.dst = None
        rec.srcs = ()
        rec.mem_addr = base
        rec.mem_size = size
        rec.result = size

    # Room for the free, the ageing window, and the dangling load.
    horizon = len(records) - 1200
    alu = [i for i in range(min_seq, max(min_seq + 1, horizon))
           if records[i].attack_id is None
           and records[i].iclass is InstrClass.INT_ALU]
    planted = 0
    cursor = 0
    while planted < needed and cursor + 1 < len(alu):
        alloc_idx = alu[cursor]
        free_idx = next((i for i in alu[cursor + 1:]
                         if i >= alloc_idx + 32), None)
        if free_idx is None:
            break
        base = next_base
        next_base += size + 0x1000
        _convert(alloc_idx, alloc_word, alloc_dec, base)
        _convert(free_idx, free_word, free_dec, base)
        trace.objects.append(HeapObject(
            base=base, size=size, alloc_seq=records[alloc_idx].seq,
            free_seq=records[free_idx].seq))
        planted += 1
        # Spread the planted scenarios across the trace.
        cursor += max(2, len(alu) // max(1, needed))


def _inject_uaf(trace: Trace, count: int, min_seq: int,
                placement: str = "spread") -> list[AttackSite]:
    """Point loads at freed (quarantined) regions after their free.
    ``late`` placement favours the objects freed last, so the dangling
    access lands as close to the end of the trace — for scenario
    phases, the phase boundary — as the quarantine-ageing window
    allows."""
    records = trace.records
    freed = [o for o in trace.objects
             if o.free_seq is not None and o.free_seq >= min_seq]
    if len(freed) < count:
        _synthesize_frees(trace, count - len(freed), min_seq)
        freed = [o for o in trace.objects
                 if o.free_seq is not None and o.free_seq >= min_seq]
    if not freed:
        raise TraceError(
            "trace has no freed objects and none could be planted; "
            "increase the trace length")
    loads = [i for i, r in enumerate(records)
             if r.iclass is InstrClass.LOAD and r.attack_id is None]
    sites: list[AttackSite] = []
    freed.sort(key=lambda o: o.free_seq)
    # Only objects whose quarantine has a load left to age into are
    # placement candidates; ``late`` then lands on the *latest* free
    # the ageing window still allows, instead of dying on frees too
    # close to the trace end to ever be dereferenced.
    last_load_seq = records[loads[-1]].seq if loads else -1
    freed = [o for o in freed if o.free_seq + 1100 <= last_load_seq]
    if not freed:
        # Every free in range came too late to age (a short phase
        # stretched to the UaF floor): plant frees clear of the end.
        _synthesize_frees(trace, count, min_seq)
        freed = sorted((o for o in trace.objects
                        if o.free_seq is not None
                        and o.free_seq >= min_seq
                        and o.free_seq + 1100 <= last_load_seq),
                       key=lambda o: o.free_seq)
    if not freed:
        raise TraceError(
            "every freed object sits too close to the trace end for "
            "its quarantine to age; increase the trace length")
    freed_iter = _spaced_choices(list(range(len(freed))), count,
                                 len(freed), placement)
    for attack_id, fidx in enumerate(freed_iter):
        obj = freed[fidx]
        # First load comfortably after the free: quarantine poisoning
        # is deferred past the engines' in-flight window (the kernels'
        # FREE_DELAY_PACKETS ageing), so the dangling access must
        # trail the free by more than that window.
        target_idx = None
        for i in loads:
            if records[i].seq >= obj.free_seq + 1100:
                target_idx = i
                break
        if target_idx is None:
            continue
        rec = records[target_idx]
        rec.mem_addr = obj.base + (obj.size // 2) // 8 * 8
        rec.attack_id = attack_id
        loads.remove(target_idx)
        sites.append(AttackSite(attack_id, rec.seq, AttackKind.UAF_ACCESS,
                                f"addr={rec.mem_addr:#x} freed@{obj.free_seq}"))
    if not sites:
        raise TraceError("could not place any UaF attacks in the trace")
    return sites
