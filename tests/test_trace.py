"""Unit tests for the workload substrate (profiles, generator, attacks)."""

import pytest

from repro.errors import ConfigError, TraceError
from repro.isa.opcodes import InstrClass
from repro.trace.attacks import (
    HIJACK_BASE,
    AttackKind,
    inject_attacks,
)
from repro.trace.generator import TraceGenerator, generate_trace
from repro.trace.profiles import (
    PARSEC_BENCHMARKS,
    PARSEC_PROFILES,
    WorkloadProfile,
)


def small_trace(name="swaptions", seed=5, length=4000):
    return generate_trace(PARSEC_PROFILES[name], seed=seed, length=length)


class TestProfiles:
    def test_nine_benchmarks(self):
        assert len(PARSEC_BENCHMARKS) == 9
        assert "x264" in PARSEC_BENCHMARKS

    def test_x264_has_highest_mem_fraction(self):
        mems = {n: p.frac_mem for n, p in PARSEC_PROFILES.items()}
        assert max(mems, key=mems.get) == "x264"

    def test_dedup_most_allocation_heavy(self):
        rates = {n: p.alloc_per_kilo for n, p in PARSEC_PROFILES.items()}
        assert max(rates, key=rates.get) == "dedup"

    def test_fraction_sum_validated(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="bad", frac_load=0.5, frac_store=0.4,
                            frac_branch=0.2, frac_call=0.0, frac_fp=0.0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="bad", frac_load=-0.1, frac_store=0.1,
                            frac_branch=0.1, frac_call=0.01, frac_fp=0.1)


class TestGenerator:
    def test_length_respected(self):
        trace = small_trace(length=3000)
        assert len(trace) >= 3000

    def test_deterministic(self):
        a = small_trace(seed=9)
        b = small_trace(seed=9)
        assert len(a) == len(b)
        assert all(x.pc == y.pc and x.word == y.word and x.seq == y.seq
                   for x, y in zip(a.records, b.records))

    def test_seeds_differ(self):
        a = small_trace(seed=1)
        b = small_trace(seed=2)
        assert any(x.word != y.word or x.pc != y.pc
                   for x, y in zip(a.records, b.records))

    def test_sequential_seq_numbers(self):
        trace = small_trace()
        assert [r.seq for r in trace.records] \
            == list(range(len(trace.records)))

    def test_mix_tracks_profile(self):
        profile = PARSEC_PROFILES["x264"]
        trace = generate_trace(profile, seed=3, length=20000)
        counts = trace.class_counts()
        n = len(trace)
        load_frac = counts.get(InstrClass.LOAD, 0) / n
        store_frac = counts.get(InstrClass.STORE, 0) / n
        assert abs(load_frac - profile.frac_load) < 0.10
        assert abs(store_frac - profile.frac_store) < 0.07

    def test_calls_and_rets_balance(self):
        trace = small_trace("dedup", length=10000)
        counts = trace.class_counts()
        calls = counts.get(InstrClass.CALL, 0)
        rets = counts.get(InstrClass.RET, 0)
        assert calls > 0
        assert abs(calls - rets) <= PARSEC_PROFILES["dedup"].max_call_depth

    def test_rets_match_call_sites(self):
        trace = small_trace("ferret", length=8000)
        stack = []
        for rec in trace.records:
            if rec.iclass is InstrClass.CALL:
                stack.append(rec.pc + 4)
            elif rec.iclass is InstrClass.RET:
                assert stack, "return without a call"
                assert rec.target == stack.pop()

    def test_heap_objects_disjoint(self):
        trace = small_trace("dedup", length=8000)
        objects = sorted(trace.objects, key=lambda o: o.base)
        for a, b in zip(objects, objects[1:]):
            assert a.end <= b.base

    def test_free_after_alloc(self):
        trace = small_trace("dedup", length=8000)
        for obj in trace.objects:
            if obj.free_seq is not None:
                assert obj.free_seq > obj.alloc_seq

    def test_custom_events_carry_region(self):
        trace = small_trace("dedup", length=8000)
        events = [r for r in trace.records
                  if r.iclass is InstrClass.CUSTOM]
        assert events
        for ev in events:
            assert ev.mem_addr is not None
            assert ev.result > 0  # size

    def test_branch_targets_inside_function(self):
        trace = small_trace(length=6000)
        for rec in trace.records:
            if rec.iclass is InstrClass.BRANCH:
                assert abs(rec.target - rec.pc) < 1024

    def test_mem_addresses_in_known_regions(self):
        trace = small_trace(length=6000)
        for rec in trace.records:
            if rec.is_mem:
                in_heap = trace.heap_base <= rec.mem_addr < trace.heap_end
                in_global = (trace.global_base <= rec.mem_addr
                             < trace.global_end)
                assert in_heap or in_global

    def test_zero_length_rejected(self):
        with pytest.raises(TraceError):
            TraceGenerator(PARSEC_PROFILES["x264"], seed=1, length=0)

    def test_words_decode_back(self):
        # Records take opcode/funct3/iclass from the encoders' word
        # caches, never from decode(): every one must agree with it,
        # for generated and for instrumented records.
        from repro.baselines.instrument import SCHEMES, instrument_trace
        from repro.isa.decode import decode
        for name in ("swaptions", "dedup"):
            trace = small_trace(name, length=2000)
            traces = [trace] + [instrument_trace(trace, scheme)
                                for scheme in SCHEMES.values()]
            for checked in traces:
                for rec in checked.records:
                    d = decode(rec.word)
                    assert (d.opcode, d.funct3, d.iclass) == \
                        (rec.opcode, rec.funct3, rec.iclass), \
                        f"{checked.name} record {rec.seq}"


class TestAttacks:
    def test_ret_hijack_marks_records(self):
        trace = small_trace("bodytrack", length=8000)
        sites = inject_attacks(trace, AttackKind.RET_HIJACK, 10)
        assert len(sites) == 10
        marked = [r for r in trace.records if r.attack_id is not None]
        assert len(marked) == 10
        for rec in marked:
            assert rec.iclass is InstrClass.RET
            assert rec.target >= HIJACK_BASE

    def test_unique_attack_ids(self):
        trace = small_trace("bodytrack", length=8000)
        sites = inject_attacks(trace, AttackKind.RET_HIJACK, 12)
        assert len({s.attack_id for s in sites}) == len(sites)

    def test_oob_lands_in_redzone(self):
        trace = small_trace("dedup", length=8000)
        sites = inject_attacks(trace, AttackKind.OOB_ACCESS, 8)
        assert sites
        by_seq = {r.seq: r for r in trace.records}
        for site in sites:
            rec = by_seq[site.seq]
            live = [o for o in trace.objects if o.live_at(rec.seq)]
            # Address is exactly one byte past some live object.
            assert any(rec.mem_addr == o.end + 1 for o in live)

    def test_uaf_targets_freed_region(self):
        trace = small_trace("dedup", length=10000)
        sites = inject_attacks(trace, AttackKind.UAF_ACCESS, 6)
        assert sites
        by_seq = {r.seq: r for r in trace.records}
        for site in sites:
            rec = by_seq[site.seq]
            freed = [o for o in trace.objects
                     if o.free_seq is not None
                     and o.free_seq < rec.seq
                     and o.contains(rec.mem_addr)]
            assert freed

    def test_pmc_bound_requires_bounds(self):
        trace = small_trace(length=4000)
        with pytest.raises(TraceError):
            inject_attacks(trace, AttackKind.PMC_BOUND, 4)

    def test_pmc_bound_outside_fence(self):
        trace = small_trace(length=4000)
        sites = inject_attacks(trace, AttackKind.PMC_BOUND, 4,
                               pmc_bounds=(0, 1 << 40))
        by_seq = {r.seq: r for r in trace.records}
        for site in sites:
            assert by_seq[site.seq].mem_addr >= (1 << 40)

    def test_zero_count_rejected(self):
        trace = small_trace(length=2000)
        with pytest.raises(TraceError):
            inject_attacks(trace, AttackKind.RET_HIJACK, 0)

    def test_attacks_spread_across_trace(self):
        trace = small_trace("bodytrack", length=12000)
        sites = inject_attacks(trace, AttackKind.RET_HIJACK, 8)
        seqs = sorted(s.seq for s in sites)
        assert seqs[-1] - seqs[0] > len(trace.records) // 4
