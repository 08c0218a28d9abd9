"""Crash-safe per-backend delta log for streaming ingest (DESIGN §12).

LSM-style sequential append area holding the edge batches a back-end has
accepted since its base store was last compacted.  Each streamed batch
becomes one DATA record (the sorted shard, delta+varint encoded with the
PR 8 codec) followed by one COMMIT record carrying the batch sequence
number; both are CRC32-framed, so recovery can walk the log forward and
stop at the first torn/corrupt byte with no ambiguity::

    magic u32 | kind u32 | seq u64 | nedges u32 | nbytes u32 | payload | crc32

The log is *self-validating*: it lives on a raw (unframed) device and
carries its own record-level CRCs, because a torn append must read as
"absent", not as a checksum violation a later scrub would keep reporting.
Appends are strictly sequential and never rewrite committed bytes (the
record area is byte-addressed, not read-modify-write framed), so a torn
write can only damage the record being appended — recovery truncates the
debris and the committed prefix stands untouched.

Ahead of the record area sit two alternating 4 KiB header slots (a torn
header write can never damage the previously valid header)::

    magic u64 | hseq u64 | compacted u64 | intent_target u64
            | intent_token u64 | flags u64 | crc32 u32

``compacted`` is the highest batch seq already folded into the base store
(those records are gone from the log); the intent fields implement the
two-phase compaction publish: ``begin_compaction`` records the target seq
plus the base store's own durable commit token (grDB WAL seq / StreamDB
commit seq) *before* the base flush, and recovery compares the token then
vs now to decide — all-or-nothing — whether a crashed compaction's flush
committed (finish: adopt ``compacted=target``) or not (abort: keep
replaying the deltas).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..simcluster.disk import BlockDevice
from ..util.errors import GraphStorageException
from ..util.varint import decode_edge_block, encode_edge_block

__all__ = ["DeltaLog", "RECORD_START"]

_HEADER = struct.Struct("<QQQQQQ")  # magic, hseq, compacted, target, token, flags
_HDR_MAGIC = 0x4D5353474444454C  # "MSSGDDEL"
_HDR_SLOT = 4096
RECORD_START = 2 * _HDR_SLOT

_REC = struct.Struct("<IIQII")  # magic, kind, seq, nedges, nbytes
_REC_MAGIC = 0x444C4F47  # "DLOG"
_KIND_DATA = 1
_KIND_COMMIT = 2
_CRC = struct.Struct("<I")
_FLAG_TOKEN = 1  # intent_token field is meaningful


class DeltaLog:
    """One back-end's streamed-edge delta log (module doc for the format).

    Opening an existing device runs recovery: adopt the newest valid
    header, walk the record area to the last committed batch, truncate any
    torn/uncommitted debris, and decode the surviving DATA records into
    ``pending`` — the ``(seq, edges)`` batches a :class:`DeltaOverlay`
    replays over the base store.  A pending compaction intent is left for
    :meth:`resolve_intent` (the caller holds the base store's token).
    """

    def __init__(self, device: BlockDevice):
        self.device = device
        self._hseq = 0
        #: Highest batch seq folded into the base store (not in the log).
        self.compacted = 0
        #: Highest batch seq with a durable COMMIT record (or compacted).
        self.committed = 0
        #: Unfinished two-phase compaction: ``(target_seq, base_token)``.
        self.intent: tuple[int, int | None] | None = None
        #: Decoded surviving batches, ascending seq in (compacted, committed].
        self.pending: list[tuple[int, np.ndarray]] = []
        self._tail = RECORD_START
        self._recover()

    # -- recovery -------------------------------------------------------------

    def _read_header_slot(self, slot: int) -> tuple | None:
        off = slot * _HDR_SLOT
        if self.device.size() < off + _HEADER.size + _CRC.size:
            return None
        raw = self.device.read(off, _HEADER.size + _CRC.size)
        magic, hseq, compacted, target, token, flags = _HEADER.unpack_from(raw)
        (crc,) = _CRC.unpack_from(raw, _HEADER.size)
        if magic != _HDR_MAGIC or crc != zlib.crc32(raw[: _HEADER.size]):
            return None
        return hseq, compacted, target, token, flags

    def _recover(self) -> None:
        headers = [self._read_header_slot(s) for s in (0, 1)]
        headers = [h for h in headers if h is not None]
        if headers:
            hseq, compacted, target, token, flags = max(headers)
            self._hseq = hseq
            self.compacted = compacted
            if target:
                self.intent = (target, token if flags & _FLAG_TOKEN else None)
        self.committed = self.compacted
        size = self.device.size()
        if size <= RECORD_START:
            return
        buf = self.device.read(RECORD_START, size - RECORD_START)
        off = 0
        tail = 0  # relative offset just past the last valid COMMIT
        last_commit = 0
        data: list[tuple[int, np.ndarray]] = []  # (seq, edges)
        while off + _REC.size + _CRC.size <= len(buf):
            magic, kind, seq, nedges, nbytes = _REC.unpack_from(buf, off)
            if magic != _REC_MAGIC or kind not in (_KIND_DATA, _KIND_COMMIT):
                break
            end = off + _REC.size + nbytes
            if end + _CRC.size > len(buf):
                break
            (crc,) = _CRC.unpack_from(buf, end)
            if crc != zlib.crc32(buf[off:end]):
                break
            if kind == _KIND_DATA:
                payload = buf[off + _REC.size : end]
                if nedges:
                    try:
                        edges, consumed = decode_edge_block(
                            payload, nedges, what="delta-log record"
                        )
                    except GraphStorageException:
                        break
                    if consumed != nbytes:
                        break
                else:
                    edges = np.zeros((0, 2), dtype=np.int64)
                data.append((seq, edges))
            else:
                last_commit = max(last_commit, seq)
                tail = end + _CRC.size
            off = end + _CRC.size
        self.committed = max(self.compacted, last_commit)
        self._tail = RECORD_START + tail
        if size > self._tail:
            # Torn/uncommitted debris past the committed prefix vanishes.
            self.device.truncate(self._tail)
        for seq, edges in data:
            if self.compacted < seq <= self.committed:
                self.pending.append((seq, edges))
        self.pending.sort(key=lambda t: t[0])

    # -- header protocol ------------------------------------------------------

    def _write_header(self) -> None:
        self._hseq += 1
        target, token = self.intent if self.intent is not None else (0, None)
        flags = _FLAG_TOKEN if (self.intent is not None and token is not None) else 0
        body = _HEADER.pack(
            _HDR_MAGIC,
            self._hseq,
            self.compacted,
            target,
            token if (flags & _FLAG_TOKEN) else 0,
            flags,
        )
        record = body + _CRC.pack(zlib.crc32(body))
        slot = (self._hseq % 2) * _HDR_SLOT
        self.device.write(slot, record.ljust(_HDR_SLOT, b"\x00"))

    # -- append protocol ------------------------------------------------------

    @staticmethod
    def _frame(kind: int, seq: int, nedges: int, payload: bytes) -> bytes:
        body = _REC.pack(_REC_MAGIC, kind, seq, nedges, len(payload)) + payload
        return body + _CRC.pack(zlib.crc32(body))

    def append(self, seq: int, edges: np.ndarray) -> int:
        """Durably append one batch: DATA + COMMIT in a single device write.

        ``edges`` is the back-end's ``(E, 2)`` shard (may be empty — empty
        batches still commit, keeping seq numbering uniform cluster-wide).
        A crash tearing the write leaves the COMMIT invalid, so recovery
        drops the whole batch: all-or-nothing by construction.  Returns the
        bytes appended.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges):
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            payload = encode_edge_block(edges)
        else:
            payload = b""
        data = self._frame(_KIND_DATA, seq, len(edges), payload)
        data += self._frame(_KIND_COMMIT, seq, 0, b"")
        self.device.write(self._tail, data)
        self._tail += len(data)
        self.committed = max(self.committed, seq)
        self.pending.append((seq, edges))
        return len(data)

    # -- two-phase compaction publish -----------------------------------------

    def begin_compaction(self, token: int | None) -> int:
        """Phase 1: durably record the intent to fold everything pending.

        ``token`` is the base store's durable commit counter *right now*
        (``None`` for stores with no crash story — BDB/MySQL/in-memory —
        whose recovery conservatively aborts).  Returns the target seq.
        """
        target = self.committed
        self.intent = (target, token)
        self._write_header()
        return target

    def finish_compaction(self, target: int) -> None:
        """Phase 2: the base flush committed — publish and drop the deltas."""
        self.intent = None
        self.compacted = max(self.compacted, target)
        self.committed = max(self.committed, self.compacted)
        self._write_header()
        self.device.truncate(RECORD_START)
        self._tail = RECORD_START
        self.pending = [(s, e) for s, e in self.pending if s > target]

    def abort_compaction(self) -> None:
        """The base flush never committed: clear the intent, keep the deltas."""
        self.intent = None
        self._write_header()

    def resolve_intent(self, base_token: int | None) -> bool:
        """Settle a compaction interrupted by a crash (called after the base
        store's own restore ran, so ``base_token`` reflects the recovered
        image).  Returns True when the compaction was completed.

        The base flush is itself all-or-nothing (grDB WAL roll-forward /
        StreamDB commit slots), so comparing its commit counter against the
        value the intent recorded is an unambiguous did-it-land test.  A
        ``None`` on either side means no token is available — abort, the
        conservative choice that never drops data.
        """
        if self.intent is None:
            return False
        target, token = self.intent
        if token is not None and base_token is not None and base_token > token:
            self.finish_compaction(target)
            return True
        self.abort_compaction()
        return False
