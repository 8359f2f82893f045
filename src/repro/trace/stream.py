"""Chunked streaming over the FGTRACE1 binary trace format.

The in-memory :class:`~repro.trace.record.Trace` caps both trace
length and scenario diversity: every record lives in RAM for the whole
run.  This module keeps the on-disk format of :mod:`repro.trace.io`
byte for byte — a JSON header followed by fixed-width records — but
reads and writes it in bounded-memory chunks, so generation, attack
injection (via :mod:`repro.trace.scenario`) and simulation never hold
more than one chunk of records at a time:

* :class:`TraceWriter` — ``append(record)`` streams records to a spool
  file; ``finalize()`` prepends the header (whose object table and
  count are only known at the end) with a chunked copy and returns the
  sha256 digest of the finished file;
* :class:`TraceReader` — parses the header once and ``__iter__``
  yields fixed-size lists of :class:`InstrRecord`; load errors name
  the failing record index and file offset;
* :class:`StreamedTrace` — the Trace-shaped adapter the simulator
  consumes: metadata attributes plus ``record_view()`` (sequential
  indexed access, one chunk resident) and ``iter_records()`` (a fresh
  full pass, used by the core's warm-up).

The record encoding is shared with :mod:`repro.trace.io`, so a trace
written by either path round-trips losslessly through the other,
including the ``attack_id = -1`` and ``_NO_ADDR`` sentinel encodings
for "no attack" and "no memory access".
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.errors import TraceError
from repro.isa.opcodes import InstrClass
from repro.trace.record import HeapObject, InstrRecord, Trace

MAGIC = b"FGTRACE1"
# pc, word, opcode, funct3, iclass, dst, nsrcs, srcs[2], mem_addr,
# mem_size, taken, target, result, attack_id
RECORD_STRUCT = struct.Struct("<QIBBBbbBBQHBQQi")
RECORD_BYTES = RECORD_STRUCT.size

_CLASS_BY_INDEX = tuple(InstrClass)
_INDEX_BY_CLASS = {c: i for i, c in enumerate(_CLASS_BY_INDEX)}

#: Sentinel encoding for ``mem_addr is None`` (no memory access).
NO_ADDR = (1 << 64) - 1

#: Records per chunk: 4096 × 44 B ≈ 180 KB of file bytes resident.
DEFAULT_CHUNK_RECORDS = 4096

_COPY_BYTES = 1 << 20


def pack_record(rec: InstrRecord) -> bytes:
    """One record in the FGTRACE1 fixed-width encoding."""
    srcs = (rec.srcs + (0, 0))[:2]
    return RECORD_STRUCT.pack(
        rec.pc, rec.word, rec.opcode, rec.funct3,
        _INDEX_BY_CLASS[rec.iclass],
        -1 if rec.dst is None else rec.dst,
        len(rec.srcs), srcs[0], srcs[1],
        NO_ADDR if rec.mem_addr is None else rec.mem_addr,
        rec.mem_size, 1 if rec.taken else 0, rec.target,
        rec.result,
        -1 if rec.attack_id is None else rec.attack_id)


def unpack_record(blob: bytes, seq: int) -> InstrRecord:
    """Decode one fixed-width record (inverse of :func:`pack_record`);
    an out-of-range instruction-class code raises :class:`TraceError`."""
    return _record(seq, *RECORD_STRUCT.unpack(blob))


def _record(seq, pc, word, opcode, funct3, class_idx, dst, nsrcs, s0, s1,
            mem_addr, mem_size, taken, target, result,
            attack_id) -> InstrRecord:
    """An :class:`InstrRecord` from its unpacked FGTRACE1 fields."""
    if class_idx >= len(_CLASS_BY_INDEX):
        raise TraceError(
            f"instruction class code {class_idx} out of range")
    return InstrRecord(
        seq=seq, pc=pc, word=word, opcode=opcode, funct3=funct3,
        iclass=_CLASS_BY_INDEX[class_idx],
        dst=None if dst < 0 else dst,
        srcs=(s0, s1)[:nsrcs],
        mem_addr=None if mem_addr == NO_ADDR else mem_addr,
        mem_size=mem_size, taken=bool(taken), target=target,
        result=result,
        attack_id=None if attack_id < 0 else attack_id)


@dataclass
class TraceMeta:
    """The FGTRACE1 header: everything about a trace except its records."""

    name: str
    seed: int
    count: int
    heap_base: int = 0
    heap_end: int = 0
    global_base: int = 0
    global_end: int = 0
    warm_end: int = 0
    objects: list[HeapObject] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceMeta":
        return cls(name=trace.name, seed=trace.seed,
                   count=len(trace.records), heap_base=trace.heap_base,
                   heap_end=trace.heap_end, global_base=trace.global_base,
                   global_end=trace.global_end, warm_end=trace.warm_end,
                   objects=list(trace.objects))

    def header_bytes(self) -> bytes:
        """The JSON header, key order fixed so identical metadata always
        serialises to identical bytes (the digest contract)."""
        header = {
            "name": self.name,
            "seed": self.seed,
            "count": self.count,
            "heap_base": self.heap_base,
            "heap_end": self.heap_end,
            "global_base": self.global_base,
            "global_end": self.global_end,
            "warm_end": self.warm_end,
            "objects": [
                [o.base, o.size, o.alloc_seq,
                 -1 if o.free_seq is None else o.free_seq]
                for o in self.objects
            ],
        }
        return json.dumps(header).encode()


def parse_header(fh: IO[bytes], path: Path) -> tuple[TraceMeta, int]:
    """Read and validate the header; returns (meta, record data offset)."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceError(f"{path}: not a FireGuard trace file")
    length_blob = fh.read(4)
    if len(length_blob) != 4:
        raise TraceError(
            f"{path}: truncated header length field at file offset "
            f"{len(MAGIC)} (expected 4 bytes, found {len(length_blob)})")
    (header_len,) = struct.unpack("<I", length_blob)
    header_blob = fh.read(header_len)
    if len(header_blob) != header_len:
        raise TraceError(
            f"{path}: truncated header at file offset {len(MAGIC) + 4} "
            f"(expected {header_len} bytes, found {len(header_blob)})")
    try:
        header = json.loads(header_blob)
    except ValueError as exc:
        raise TraceError(f"{path}: corrupt JSON header: {exc}") from exc
    try:
        objects = [
            HeapObject(base=b, size=s, alloc_seq=a,
                       free_seq=None if f < 0 else f)
            for b, s, a, f in header["objects"]
        ]
        meta = TraceMeta(
            name=header["name"], seed=header["seed"],
            count=header["count"], heap_base=header["heap_base"],
            heap_end=header["heap_end"],
            global_base=header["global_base"],
            global_end=header["global_end"],
            warm_end=header.get("warm_end", 0), objects=objects)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(
            f"{path}: corrupt JSON header: missing or malformed "
            f"field ({exc!r})") from exc
    return meta, len(MAGIC) + 4 + header_len


def file_digest(path: str | Path) -> str:
    """sha256 of a file's full contents, read in bounded chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            blob = fh.read(_COPY_BYTES)
            if not blob:
                break
            digest.update(blob)
    return digest.hexdigest()


class TraceWriter:
    """Streams records into an FGTRACE1 file with bounded memory.

    Records go to a ``.part`` spool next to the target as they arrive;
    :meth:`finalize` (with the metadata only known once generation
    finished — object table, heap end, count) writes the header and
    splices the spooled records after it in bounded chunks.  The
    sha256 of the finished file is available as :attr:`digest` — the
    runner's content-addressed trace cache keys on it.

    Usable as a context manager: leaving the block without a
    ``finalize()`` discards the spool (aborted generation leaves no
    half-written trace behind).
    """

    def __init__(self, path: str | Path, name: str, seed: int):
        self.path = Path(path)
        self.name = name
        self.seed = seed
        self.count = 0
        self.digest: str | None = None
        self.meta: TraceMeta | None = None
        self._part = self.path.with_name(self.path.name + ".part")
        self._fh: IO[bytes] | None = open(self._part, "wb")

    def append(self, rec: InstrRecord) -> None:
        if self._fh is None:
            raise TraceError(f"{self.path}: writer already closed")
        self._fh.write(pack_record(rec))
        self.count += 1

    def extend(self, records: Iterable[InstrRecord]) -> None:
        for rec in records:
            self.append(rec)

    def finalize(self, objects: Iterable[HeapObject] = (),
                 heap_base: int = 0, heap_end: int = 0,
                 global_base: int = 0, global_end: int = 0,
                 warm_end: int = 0) -> str:
        """Write header + spooled records to the target; returns the
        sha256 digest of the finished file."""
        if self._fh is None:
            raise TraceError(f"{self.path}: writer already closed")
        self._fh.close()
        self._fh = None
        meta = TraceMeta(name=self.name, seed=self.seed, count=self.count,
                         heap_base=heap_base, heap_end=heap_end,
                         global_base=global_base, global_end=global_end,
                         warm_end=warm_end, objects=list(objects))
        header = meta.header_bytes()
        digest = hashlib.sha256()
        with open(self.path, "wb") as out, open(self._part, "rb") as spool:
            for blob in (MAGIC, struct.pack("<I", len(header)), header):
                out.write(blob)
                digest.update(blob)
            while True:
                blob = spool.read(_COPY_BYTES)
                if not blob:
                    break
                out.write(blob)
                digest.update(blob)
        os.unlink(self._part)
        self.meta = meta
        self.digest = digest.hexdigest()
        return self.digest

    def abort(self) -> None:
        """Discard the spool without producing a trace file."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            os.unlink(self._part)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.abort()


class TraceReader:
    """Chunked reads over an FGTRACE1 file.

    The header is parsed once at construction (:attr:`meta`);
    ``__iter__`` starts a fresh pass yielding ``chunk_records``-sized
    lists of :class:`InstrRecord` (the last chunk may be short).  Load
    errors report the failing record index and absolute file offset,
    so a truncated or corrupted archive points at the damage.
    """

    def __init__(self, path: str | Path,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if chunk_records <= 0:
            raise TraceError(
                f"chunk_records must be positive, got {chunk_records}")
        self.path = Path(path)
        self.chunk_records = chunk_records
        with open(self.path, "rb") as fh:
            self.meta, self._data_offset = parse_header(fh, self.path)

    def __len__(self) -> int:
        return self.meta.count

    def __iter__(self) -> Iterator[list[InstrRecord]]:
        count = self.meta.count
        with open(self.path, "rb") as fh:
            fh.seek(self._data_offset)
            seq = 0
            while seq < count:
                want = min(self.chunk_records, count - seq)
                blob = fh.read(want * RECORD_BYTES)
                if len(blob) < want * RECORD_BYTES:
                    bad = seq + len(blob) // RECORD_BYTES
                    offset = self._data_offset + bad * RECORD_BYTES
                    found = len(blob) - (bad - seq) * RECORD_BYTES
                    raise TraceError(
                        f"{self.path}: truncated at record {bad} of "
                        f"{count} (file offset {offset}: expected "
                        f"{RECORD_BYTES} bytes, found {found})")
                yield self._decode_chunk(blob, seq)
                seq += want

    def _decode_chunk(self, blob: bytes, seq: int) -> list[InstrRecord]:
        """Materialise one chunk; a corrupt record's error names its
        index and absolute file offset."""
        chunk: list[InstrRecord] = []
        for fields in RECORD_STRUCT.iter_unpack(blob):
            index = seq + len(chunk)
            try:
                chunk.append(_record(index, *fields))
            except TraceError as exc:
                offset = self._data_offset + index * RECORD_BYTES
                raise TraceError(
                    f"{self.path}: corrupt record {index} of "
                    f"{self.meta.count} (file offset {offset}): {exc}"
                ) from exc
        return chunk

    def records(self) -> Iterator[InstrRecord]:
        """A fresh flat pass over all records."""
        for chunk in self:
            yield from chunk

    def load(self) -> Trace:
        """Materialise the whole file as an in-memory :class:`Trace`."""
        meta = self.meta
        records = [rec for chunk in self for rec in chunk]
        return Trace(
            name=meta.name, seed=meta.seed, records=records,
            objects=list(meta.objects), heap_base=meta.heap_base,
            heap_end=meta.heap_end, global_base=meta.global_base,
            global_end=meta.global_end, warm_end=meta.warm_end)


class _SequentialRecords:
    """Monotone indexed access over one reader pass.

    Implements the ``len()`` / ``view[i]`` protocol the main core's
    dispatch loop uses, holding only the chunk containing ``i``.  The
    core's dispatch index never moves backwards, so a passed chunk is
    dropped; an out-of-window backwards access raises.
    """

    __slots__ = ("_chunks", "_buf", "_start", "_count", "_path")

    def __init__(self, reader: TraceReader):
        self._chunks = iter(reader)
        self._buf: list[InstrRecord] = []
        self._start = 0
        self._count = reader.meta.count
        self._path = reader.path

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> InstrRecord:
        offset = index - self._start
        if offset < 0:
            raise TraceError(
                f"{self._path}: streamed trace is forward-only "
                f"(record {index} already passed, window starts at "
                f"{self._start})")
        while offset >= len(self._buf):
            self._start += len(self._buf)
            offset = index - self._start
            try:
                self._buf = next(self._chunks)
            except StopIteration:
                raise IndexError(index) from None
        return self._buf[offset]


class StreamedTrace:
    """A Trace-shaped view of an on-disk FGTRACE1 file.

    Exposes the metadata attributes the simulator reads (``name``,
    ``seed``, ``objects``, region bounds, ``len()``) plus the two
    record access paths :class:`~repro.ooo.core.MainCore` needs —
    ``iter_records()`` for the functional warm-up pass and
    ``record_view()`` for timed dispatch — each a fresh bounded-memory
    pass over the file.  One instance can back any number of runs
    (monitored, baseline, repeated), since every pass re-opens.
    """

    def __init__(self, path: str | Path,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS,
                 digest: str | None = None):
        self._reader = TraceReader(path, chunk_records=chunk_records)
        self.path = self._reader.path
        self.digest = digest
        meta = self._reader.meta
        self.name = meta.name
        self.seed = meta.seed
        self.objects = meta.objects
        self.heap_base = meta.heap_base
        self.heap_end = meta.heap_end
        self.global_base = meta.global_base
        self.global_end = meta.global_end
        self.warm_end = meta.warm_end

    def __len__(self) -> int:
        return self._reader.meta.count

    def iter_records(self) -> Iterator[InstrRecord]:
        return self._reader.records()

    def record_view(self) -> _SequentialRecords:
        return _SequentialRecords(self._reader)

    def load(self) -> Trace:
        return self._reader.load()


def stream_trace(profile, seed: int, length: int, path: str | Path,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS,
                 ) -> StreamedTrace:
    """Generate a single-profile workload straight to disk.

    Bit-identical records to
    :func:`~repro.trace.generator.generate_trace` (same generator state
    machine), but peak memory is one record at a time plus the heap
    ground-truth table, not the whole trace.
    """
    from repro.trace.generator import TraceGenerator

    gen = TraceGenerator(profile, seed=seed, length=length)
    with TraceWriter(path, name=profile.name, seed=seed) as writer:
        writer.extend(gen.iter_records())
        digest = writer.finalize(**gen.final_meta())
    return StreamedTrace(path, chunk_records=chunk_records, digest=digest)
