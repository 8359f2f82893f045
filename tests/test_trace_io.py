"""Tests for trace serialisation."""

import pytest

from repro.errors import TraceError
from repro.isa.opcodes import InstrClass
from repro.trace.attacks import AttackKind, inject_attacks
from repro.trace.generator import generate_trace
from repro.trace.io import load_trace, save_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.record import InstrRecord
from repro.trace.stream import (
    NO_ADDR, RECORD_BYTES, RECORD_STRUCT, TraceReader, pack_record,
    unpack_record)

#: Every FGTRACE1 sentinel encoding next to its edge value: no memory
#: access vs the largest real address, no attack vs attack 0, no
#: destination vs x0, and each source-operand count.
SENTINEL_FIELDS = (
    {"mem_addr": None}, {"mem_addr": NO_ADDR - 1},
    {"attack_id": None}, {"attack_id": 0},
    {"dst": None}, {"dst": 0},
    {"srcs": ()}, {"srcs": (7,)}, {"srcs": (7, 9)},
)


@pytest.fixture
def trace():
    return generate_trace(PARSEC_PROFILES["dedup"], seed=31, length=3000)


class TestRoundTrip:
    def test_records_identical(self, trace, tmp_path):
        # The generated records cover the sentinels only statistically;
        # pin each encoding with an explicit record.
        start = len(trace.records)
        trace.records.extend(
            InstrRecord(seq=start + i, pc=0x1000, word=0x13, opcode=0x13,
                        funct3=0, iclass=InstrClass.INT_ALU, **fields)
            for i, fields in enumerate(SENTINEL_FIELDS))
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded.records) == len(trace.records)
        for a, b in zip(trace.records, loaded.records):
            assert a.seq == b.seq and a.pc == b.pc and a.word == b.word
            assert a.opcode == b.opcode and a.funct3 == b.funct3
            assert a.iclass is b.iclass
            assert a.dst == b.dst and a.srcs == b.srcs
            assert a.mem_addr == b.mem_addr and a.mem_size == b.mem_size
            assert a.taken == b.taken and a.target == b.target
            assert a.result == b.result and a.attack_id == b.attack_id
        for fields, record in zip(SENTINEL_FIELDS, loaded.records[start:]):
            for name, value in fields.items():
                assert getattr(record, name) == value

    def test_metadata_preserved(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name and loaded.seed == trace.seed
        assert loaded.heap_base == trace.heap_base
        assert loaded.warm_end == trace.warm_end
        assert len(loaded.objects) == len(trace.objects)
        for a, b in zip(trace.objects, loaded.objects):
            assert (a.base, a.size, a.alloc_seq, a.free_seq) \
                == (b.base, b.size, b.alloc_seq, b.free_seq)

    def test_attack_ids_preserved(self, trace, tmp_path):
        inject_attacks(trace, AttackKind.OOB_ACCESS, 5)
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        orig = {r.seq: r.attack_id for r in trace.records
                if r.attack_id is not None}
        got = {r.seq: r.attack_id for r in loaded.records
               if r.attack_id is not None}
        assert orig == got

    def test_simulation_identical(self, trace, tmp_path):
        from repro.ooo.core import MainCore

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert MainCore().run_standalone(trace).cycles \
            == MainCore().run_standalone(loaded).cycles

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fgt"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_truncated_rejected(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 10])
        with pytest.raises(TraceError):
            load_trace(path)


class TestSentinels:
    """Each sentinel's on-disk field value, so a changed encoding fails
    here even when it still round-trips, next to the edge value the
    sentinel must not swallow."""

    def encode(self, **fields):
        record = InstrRecord(seq=0, pc=0x1000, word=0x13, opcode=0x13,
                             funct3=0, iclass=InstrClass.INT_ALU,
                             **fields)
        blob = pack_record(record)
        # pc, word, opcode, funct3, iclass, dst, nsrcs, src0, src1,
        # mem_addr, mem_size, taken, target, result, attack_id
        return RECORD_STRUCT.unpack(blob), unpack_record(blob, 0)

    def test_no_addr_sentinel(self):
        raw, record = self.encode(mem_addr=None)
        assert raw[9] == NO_ADDR and record.mem_addr is None
        raw, record = self.encode(mem_addr=NO_ADDR - 1)
        assert record.mem_addr == NO_ADDR - 1

    def test_attack_id_sentinel(self):
        raw, record = self.encode(attack_id=None)
        assert raw[14] == -1 and record.attack_id is None
        raw, record = self.encode(attack_id=0)
        assert record.attack_id == 0

    def test_dst_sentinel(self):
        raw, record = self.encode(dst=None)
        assert raw[5] == -1 and record.dst is None
        raw, record = self.encode(dst=0)
        assert record.dst == 0

    def test_srcs_truncation(self):
        for srcs in ((), (7,), (7, 9)):
            raw, record = self.encode(srcs=srcs)
            assert raw[6] == len(srcs) and record.srcs == srcs


class TestLoadErrorReporting:
    """Load errors name the failing record index and file offset (the
    regression for bare-struct-message TraceErrors)."""

    def _data_offset(self, path) -> int:
        from repro.trace.stream import MAGIC
        import struct

        blob = path.read_bytes()
        (header_len,) = struct.unpack(
            "<I", blob[len(MAGIC):len(MAGIC) + 4])
        return len(MAGIC) + 4 + header_len

    def test_truncated_mid_record_names_index_and_offset(
            self, trace, tmp_path):
        from repro.trace.stream import RECORD_BYTES

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data_offset = self._data_offset(path)
        # Cut the file in the middle of record 137.
        cut = data_offset + 137 * RECORD_BYTES + 11
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(TraceError) as err:
            load_trace(path)
        message = str(err.value)
        assert "record 137" in message
        assert f"file offset {data_offset + 137 * RECORD_BYTES}" \
            in message
        assert "found 11" in message

    def test_truncated_at_record_boundary(self, trace, tmp_path):
        from repro.trace.stream import RECORD_BYTES

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data_offset = self._data_offset(path)
        path.write_bytes(
            path.read_bytes()[:data_offset + 2000 * RECORD_BYTES])
        with pytest.raises(TraceError, match="record 2000"):
            load_trace(path)

    def test_corrupt_record_names_index_and_offset(
            self, trace, tmp_path):
        from repro.trace.stream import RECORD_BYTES

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data_offset = self._data_offset(path)
        # Clobber record 42's instruction-class byte (offset 14 in the
        # packed layout) with an out-of-range index.
        blob = bytearray(path.read_bytes())
        blob[data_offset + 42 * RECORD_BYTES + 14] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError) as err:
            load_trace(path)
        message = str(err.value)
        assert "record 42" in message
        assert f"file offset {data_offset + 42 * RECORD_BYTES}" \
            in message
        assert "instruction class code 255 out of range" in message

    def test_bad_class_code_names_row(self, trace, tmp_path):
        # The first invalid code, in a later chunk of a streamed read:
        # the error names the record's index in the whole trace.
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data_offset = self._data_offset(path)
        blob = bytearray(path.read_bytes())
        blob[data_offset + 102 * RECORD_BYTES + 14] = len(InstrClass)
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError) as err:
            list(TraceReader(path, chunk_records=50))
        message = str(err.value)
        assert "corrupt record 102 of" in message
        assert f"instruction class code {len(InstrClass)} out of range" \
            in message

    def test_truncated_header_reported(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TraceError, match="truncated header"):
            load_trace(path)

    def test_corrupt_header_json_reported(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        blob = bytearray(path.read_bytes())
        blob[14] = ord("}")  # break the JSON without touching length
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="corrupt JSON header"):
            load_trace(path)
