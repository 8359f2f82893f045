"""Property tests for workload families and the campaign fuzzer.

The compositor invariants (continuous seqs, balanced call stack,
disjoint heaps, lossless FGTRACE1 round-trip) are pinned for
*hand-written* scenarios in test_scenario.py; here hypothesis drives
the same invariants over the fuzzer's whole input space — arbitrary
seeds and campaign shapes — plus the contracts the fuzzer itself
adds: continuous attack ids, exact ground truth, placement policies,
and in-process corpus determinism.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.isa.opcodes import InstrClass
from repro.trace.attacks import (
    PLACEMENTS,
    AttackKind,
    AttackPlan,
    inject_attacks,
)
from repro.trace.families import (
    FAMILY_KINDS,
    FamilyConfig,
    make_family_scenario,
)
from repro.trace.fuzz import (
    KIND_ORDER,
    FuzzConfig,
    corpus_digest,
    fuzz_case,
    fuzz_corpus,
)
from repro.trace.generator import generate_trace
from repro.trace.io import load_trace, save_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.scenario import compose_trace


def _walk_call_stack(trace):
    stack = []
    for rec in trace.records:
        if rec.iclass is InstrClass.CALL:
            stack.append(rec.result)
        elif rec.iclass is InstrClass.RET:
            assert stack, f"return at seq {rec.seq} underflows"
            expected = stack.pop()
            if rec.attack_id is None:
                assert rec.target == expected
    return stack


_CONFIGS = st.builds(
    FuzzConfig,
    seed=st.integers(min_value=1, max_value=2**31 - 1),
    campaigns=st.just(8),
    min_phase=st.just(700),
    max_phase=st.integers(min_value=700, max_value=1100),
    max_plans=st.integers(min_value=1, max_value=2),
    attack_free_every=st.sampled_from((0, 3, 4)),
)


class TestCampaignInvariants:
    """The compositor's guarantees hold for every fuzzed campaign."""

    @settings(max_examples=10, deadline=None)
    @given(config=_CONFIGS, index=st.integers(min_value=0, max_value=7))
    # Every free of this phase trails its last load by < 1100 records,
    # so the UaF plan must plant its own frees.
    @example(config=FuzzConfig(seed=86749, campaigns=8, min_phase=700,
                               max_phase=700, max_plans=2,
                               attack_free_every=0),
             index=2)
    def test_composed_campaign_invariants(self, config, index):
        case = fuzz_case(config, index)
        trace, sites = compose_trace(case.scenario, case.seed)

        # Continuous sequence numbers across every phase boundary.
        assert [rec.seq for rec in trace.records] \
            == list(range(len(trace.records)))

        # Balanced call stack, hijacked returns excepted.
        assert _walk_call_stack(trace) == []

        # Heap objects never alias (disjoint per-phase ranges, and
        # synthesized UaF objects live past the workload's heap).
        spans = sorted((o.base, o.end) for o in trace.objects)
        for (_, prev_end), (next_base, _) in zip(spans, spans[1:]):
            assert prev_end <= next_base, "heap objects alias"

        # Attack ids are continuous 0..N-1 even when a plan under-
        # fills, each site's record is tagged with its id, and the
        # ground-truth accessor reproduces the composition exactly.
        assert [s.attack_id for s in sites] == list(range(len(sites)))
        by_seq = {rec.seq: rec for rec in trace.records}
        for site in sites:
            assert by_seq[site.seq].attack_id == site.attack_id
        assert tuple(sites) == case.ground_truth()

        # Attack-free campaigns are actually attack-free.
        if case.attack_free:
            assert sites == []
            assert all(rec.attack_id is None for rec in trace.records)
        else:
            assert sites, "armed campaign composed no attacks"
            assert {s.kind for s in sites} <= case.planned_kinds()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=2**31 - 1))
    def test_fuzzed_scenario_roundtrips_fgtrace1(self, seed, tmp_path_factory):
        config = FuzzConfig(seed=seed, campaigns=4, min_phase=700,
                            max_phase=900)
        case = fuzz_case(config, 0)
        trace, _ = compose_trace(case.scenario, case.seed)
        path = tmp_path_factory.mktemp("fuzz") / "campaign.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded.records) == len(trace.records)
        for a, b in zip(trace.records, loaded.records):
            assert (a.seq, a.pc, a.word, a.iclass, a.mem_addr,
                    a.mem_size, a.taken, a.target, a.result,
                    a.attack_id) \
                == (b.seq, b.pc, b.word, b.iclass, b.mem_addr,
                    b.mem_size, b.taken, b.target, b.result,
                    b.attack_id)


class TestCorpusDeterminism:
    def test_corpus_regenerates_identically(self):
        config = FuzzConfig(campaigns=6, max_phase=1000)
        first = fuzz_corpus(config)
        second = fuzz_corpus(config)
        assert first == second
        assert corpus_digest(first) == corpus_digest(second)

    def test_campaigns_are_independent_forks(self):
        # Any slice regenerates without the rest of the corpus.
        config = FuzzConfig(campaigns=6, max_phase=1000)
        corpus = fuzz_corpus(config)
        assert fuzz_case(config, 3) == corpus[3]

    def test_seed_changes_corpus(self):
        base = FuzzConfig(campaigns=4)
        other = FuzzConfig(campaigns=4, seed=base.seed + 1)
        assert corpus_digest(fuzz_corpus(base)) \
            != corpus_digest(fuzz_corpus(other))

    def test_kind_and_family_schedule_covers_product(self):
        # 16 campaigns = 12 armed: the Latin square lands every
        # primary kind on >= 3 distinct families structurally,
        # before any simulation runs.
        corpus = fuzz_corpus(FuzzConfig(campaigns=16))
        families = {kind: set() for kind in KIND_ORDER}
        for case in corpus:
            for kind in case.planned_kinds():
                families[kind].add(case.family)
        for kind, fams in families.items():
            assert len(fams) >= 3, \
                f"{kind.name} planned on only {sorted(fams)}"

    def test_attack_free_stride_never_starves_a_kind(self):
        # The free stride (every 4th) must not alias onto one slot of
        # the 4-kind primary cycle: every kind keeps primaries.
        corpus = fuzz_corpus(FuzzConfig(campaigns=16))
        assert sum(case.attack_free for case in corpus) == 4
        primaries = {kind: 0 for kind in KIND_ORDER}
        for case in corpus:
            for kind in case.planned_kinds():
                primaries[kind] += 1
        for kind, hits in primaries.items():
            assert hits >= 3, f"{kind.name} starved by the free stride"

    def test_index_out_of_range_rejected(self):
        config = FuzzConfig(campaigns=2)
        with pytest.raises(ConfigError, match="outside"):
            fuzz_case(config, 2)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="unknown family"):
            FuzzConfig(families=("steady",))
        with pytest.raises(ConfigError, match="campaign"):
            FuzzConfig(campaigns=0)
        with pytest.raises(ConfigError, match="phase bounds"):
            FuzzConfig(min_phase=1200, max_phase=800)


class TestFamilies:
    def test_static_phases_equal_length(self):
        scenario = make_family_scenario(
            FamilyConfig("static", ("x264",), phases=3,
                         phase_length=800))
        assert [p.length for p in scenario.phases] == [800] * 3

    def test_ramp_lengths_scale_to_intensity(self):
        scenario = make_family_scenario(
            FamilyConfig("ramp", ("dedup",), phases=4,
                         phase_length=800, intensity=3.0))
        lengths = [p.length for p in scenario.phases]
        assert lengths == sorted(lengths)
        assert lengths[0] == 800 and lengths[-1] == 2400

    def test_oscillating_alternates_profiles(self):
        scenario = make_family_scenario(
            FamilyConfig("oscillating", ("swaptions", "x264"),
                         phases=4, phase_length=700))
        assert [p.profile for p in scenario.phases] \
            == ["swaptions", "x264", "swaptions", "x264"]

    def test_bursty_interleaves_short_bursts(self):
        scenario = make_family_scenario(
            FamilyConfig("bursty", ("ferret", "x264"), phases=4,
                         phase_length=1200, intensity=3.0))
        lengths = [p.length for p in scenario.phases]
        assert lengths == [1200, 400, 1200, 400]
        assert scenario.phases[1].profile == "x264"

    def test_attacks_arm_the_longest_phase_by_default(self):
        plan = (AttackPlan(AttackKind.RET_HIJACK, 2),)
        scenario = make_family_scenario(
            FamilyConfig("ramp", ("dedup",), phases=3,
                         phase_length=800, intensity=2.0,
                         attacks=plan))
        armed = [i for i, p in enumerate(scenario.phases) if p.attacks]
        assert armed == [2]  # the ramp's last phase is longest

    def test_family_validation(self):
        with pytest.raises(ConfigError, match="unknown workload family"):
            FamilyConfig("steady", ("x264",))
        with pytest.raises(ConfigError, match="unknown family profile"):
            FamilyConfig("static", ("quake",))
        with pytest.raises(ConfigError, match="two profiles"):
            FamilyConfig("oscillating", ("x264",))
        with pytest.raises(ConfigError, match="attack_phase"):
            FamilyConfig("static", ("x264",), phases=2, attack_phase=5)

    def test_name_is_deterministic(self):
        config = FamilyConfig("static", ("x264", "dedup"), phases=2,
                              phase_length=900, intensity=1.5)
        assert config.name() == "fam-static-x264+dedup-n2-l900-i1.5"
        assert make_family_scenario(config).name == config.name()

    def test_all_family_kinds_expand(self):
        for family in FAMILY_KINDS:
            scenario = make_family_scenario(
                FamilyConfig(family, ("dedup", "x264"), phases=3,
                             phase_length=700))
            assert len(scenario.phases) == 3
            compose_trace(scenario, 5)  # must compose cleanly


class TestPlacements:
    """The placement policies position sites as documented."""

    def _trace(self, bench="dedup", length=6000, seed=13):
        return generate_trace(PARSEC_PROFILES[bench], seed=seed,
                              length=length)

    def test_early_sites_precede_late_sites(self):
        early = inject_attacks(self._trace(), AttackKind.RET_HIJACK,
                               3, placement="early")
        late = inject_attacks(self._trace(), AttackKind.RET_HIJACK,
                              3, placement="late")
        assert max(s.seq for s in early) < min(s.seq for s in late)

    def test_packed_sites_keep_attribution_daylight(self):
        # Packed placements stay clustered but never so dense that two
        # attack packets share one 8-pop attribution window.
        for placement in ("early", "late"):
            trace = self._trace()
            sites = inject_attacks(trace, AttackKind.PMC_BOUND, 4,
                                   pmc_bounds=(0x0, 2**40),
                                   placement=placement)
            seqs = sorted(s.seq for s in sites)
            mem_seqs = [r.seq for r in trace.records if r.is_mem]
            for a, b in zip(seqs, seqs[1:]):
                between = [s for s in mem_seqs if a < s <= b]
                assert len(between) > 8, \
                    f"{placement} sites {a},{b} share a pop window"

    def test_gap_placement_pokes_highest_object(self):
        trace = self._trace()
        top = max(o.end for o in trace.objects
                  if o.free_seq is None or o.free_seq > 256)
        sites = inject_attacks(trace, AttackKind.OOB_ACCESS, 2,
                               placement="gap")
        by_seq = {r.seq: r for r in trace.records}
        for site in sites:
            # Highest *live* object at the site; with gap placement at
            # the trace tail that is the heap's top span.
            assert by_seq[site.seq].mem_addr >= top - 0x10000

    def test_stacked_plans_never_collide(self):
        trace = self._trace()
        first = inject_attacks(trace, AttackKind.OOB_ACCESS, 3,
                               placement="late")
        second = inject_attacks(trace, AttackKind.PMC_BOUND, 3,
                                pmc_bounds=(0x0, 2**40),
                                placement="late")
        seqs = [s.seq for s in first] + [s.seq for s in second]
        assert len(seqs) == len(set(seqs)), \
            "stacked plans claimed one record twice"

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement"):
            AttackPlan(AttackKind.RET_HIJACK, 2, placement="middle")
        assert "spread" in PLACEMENTS
