"""The hotpath layer's decode cache and flat engine state.

The bit-identity of the kernels themselves is pinned by the golden
digests in ``tests/test_golden.py``; this file covers the digest-keyed
decode cache that dedupes per-engine program decodes, and the flat
µcore statistics behind the classic ``stats()`` surface.
"""

from repro.core.system import FireGuardSystem
from repro.hotpath.decode import (
    clear_decode_cache,
    decode_cache_stats,
    decode_ucore_program,
    program_digest,
)
from repro.kernels import make_kernel
from repro.ucore.core import MicroCore


def build_system(engines: int = 2) -> FireGuardSystem:
    return FireGuardSystem([make_kernel("asan")],
                           engines_per_kernel={"asan": engines})


class TestDecodeCache:
    def test_engines_share_one_decode(self):
        clear_decode_cache()
        system = build_system(engines=4)
        stats = decode_cache_stats()
        # One assembled asan program, four engines: one miss, the
        # rest served from the cache.
        assert stats["misses"] == 1
        assert stats["hits"] >= 3
        programs = {id(engine._prog) for engine in system.engines}
        assert len(programs) == 1

    def test_digest_is_content_keyed(self):
        system = build_system(engines=1)
        program = system.engines[0].program
        assert program_digest(program) == program_digest(list(program))
        decoded = decode_ucore_program(program)
        assert decode_ucore_program(list(program)) is decoded

    def test_micro_core_flat_stats_roundtrip(self):
        system = build_system(engines=1)
        engine = system.engines[0]
        assert isinstance(engine, MicroCore)
        assert set(engine.stats()) == {
            "instructions", "stall_cycles", "pops", "alerts"}
        engine.stat_instructions = 7
        assert engine.stats()["instructions"] == 7
        engine.reset_stats()
        assert engine.stats()["instructions"] == 0
