"""Crash-safe per-backend delta log for streaming ingest (DESIGN §12).

LSM-style sequential append area holding the edge batches a back-end has
accepted since its base store was last compacted.  Each streamed batch
becomes one DATA record (the sorted shard, delta+varint encoded with the
PR 8 codec) followed by one COMMIT record carrying the batch sequence
number; both use the shared CRC32 record frame
(:func:`repro.storage.commit.frame_record`), so recovery can walk the log
forward and stop at the first torn/corrupt byte with no ambiguity.

The log is *self-validating*: it lives on a raw (unframed) device and
carries its own record-level CRCs, because a torn append must read as
"absent", not as a checksum violation a later scrub would keep reporting.
Appends are strictly sequential and never rewrite committed bytes (the
record area is byte-addressed, not read-modify-write framed), so a torn
write can only damage the record being appended — recovery truncates the
debris and the committed prefix stands untouched.

Ahead of the record area sits the shared dual-slot commit root
(:mod:`repro.storage.commit`; a torn root write can never damage the
previous root), with fields::

    compacted u64 | intent_target u64 | intent_token u64 | flags u64

``compacted`` is the highest batch seq already folded into the base store
(those records are gone from the log); the intent fields implement the
two-phase compaction publish: ``begin_compaction`` records the target seq
plus the base store's own durable commit token
(:meth:`~repro.graphdb.interface.GraphDB.commit_token`) *before* the base
flush, and recovery compares the token then vs now to decide —
all-or-nothing — whether a crashed compaction's flush committed (finish:
adopt ``compacted=target``) or not (abort: keep replaying the deltas).
"""

from __future__ import annotations

import struct

import numpy as np

from ..simcluster.disk import BlockDevice
from ..util.errors import GraphStorageException
from ..util.varint import decode_edge_block, encode_edge_block
from .commit import RECORD_START, CommitRoot, frame_record, read_records

__all__ = ["DeltaLog", "RECORD_START"]

_ROOT_MAGIC = 0x4D5353474444454C  # "MSSGDDEL"
_ROOT_FIELDS = struct.Struct("<QQQQ")  # compacted, intent target, intent token, flags
_FLAG_TOKEN = 1  # intent token field is meaningful
_KIND_DATA = 1
_KIND_COMMIT = 2


class DeltaLog:
    """One back-end's streamed-edge delta log (module doc for the format).

    Opening an existing device runs recovery: adopt the newest valid
    root, walk the record area to the last committed batch, truncate any
    torn/uncommitted debris, and decode the surviving DATA records into
    ``pending`` — the ``(seq, edges)`` batches a :class:`DeltaOverlay`
    replays over the base store.  A pending compaction intent is left for
    :meth:`resolve_intent` (the caller holds the base store's token).
    """

    def __init__(self, device: BlockDevice):
        self.device = device
        self._root = CommitRoot(device, _ROOT_MAGIC, _ROOT_FIELDS)
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

    def _recover(self) -> None:
        root = self._root.load()
        if root is not None:
            self.compacted, target, token, flags = root[1]
            if target:
                self.intent = (target, token if flags & _FLAG_TOKEN else None)
        self.committed = self.compacted
        size = self.device.size()
        if size <= RECORD_START:
            return
        tail = RECORD_START  # just past the last valid COMMIT
        data: list[tuple[int, np.ndarray]] = []  # (seq, edges)
        for rec in read_records(self.device.read(RECORD_START, size - RECORD_START)):
            if rec.kind == _KIND_DATA:
                if rec.nedges:
                    try:
                        edges, consumed = decode_edge_block(
                            rec.payload, rec.nedges, what="delta-log record"
                        )
                    except GraphStorageException:
                        break
                    if consumed != len(rec.payload):
                        break
                else:
                    edges = np.zeros((0, 2), dtype=np.int64)
                data.append((rec.seq, edges))
            elif rec.kind == _KIND_COMMIT:
                self.committed = max(self.committed, rec.seq)
                tail = RECORD_START + rec.end
            else:
                break
        self._tail = tail
        if size > self._tail:
            # Torn/uncommitted debris past the committed prefix vanishes.
            self.device.truncate(self._tail)
        for seq, edges in data:
            if self.compacted < seq <= self.committed:
                self.pending.append((seq, edges))
        self.pending.sort(key=lambda t: t[0])

    def _commit_root(self) -> None:
        target, token = self.intent if self.intent is not None else (0, None)
        flags = _FLAG_TOKEN if token is not None else 0
        self._root.commit(self.compacted, target, token or 0, flags)

    # -- append protocol ------------------------------------------------------

    def append(self, seq: int, edges: np.ndarray) -> int:
        """Durably append one batch: DATA + COMMIT in a single device write.

        ``edges`` is the back-end's ``(E, 2)`` shard (may be empty — empty
        batches still commit, keeping seq numbering uniform cluster-wide).
        A crash tearing the write leaves the COMMIT invalid, so recovery
        drops the whole batch: all-or-nothing by construction.  Returns the
        bytes appended.  Refused while a compaction intent is open: finishing
        it truncates the record area, which would drop the batch on disk.
        """
        if self.intent is not None:
            raise GraphStorageException(
                f"delta-log append of batch {seq} inside an open compaction intent"
            )
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges):
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            payload = encode_edge_block(edges)
        else:
            payload = b""
        data = frame_record(_KIND_DATA, seq, len(edges), payload)
        data += frame_record(_KIND_COMMIT, seq, 0, b"")
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
        self._commit_root()
        return target

    def finish_compaction(self, target: int) -> None:
        """Phase 2: the base flush committed — publish and drop the deltas."""
        self.intent = None
        self.compacted = max(self.compacted, target)
        self.committed = max(self.committed, self.compacted)
        self._commit_root()
        self.device.truncate(RECORD_START)
        self._tail = RECORD_START
        self.pending = [(s, e) for s, e in self.pending if s > target]

    def abort_compaction(self) -> None:
        """The base flush never committed: clear the intent, keep the deltas."""
        self.intent = None
        self._commit_root()

    def resolve_intent(self, base_token: int | None) -> bool:
        """Settle a compaction interrupted by a crash (called after the base
        store's own restore ran, so ``base_token`` reflects the recovered
        image).  Returns True when the compaction was completed.

        The base flush is itself all-or-nothing (grDB WAL roll-forward /
        StreamDB commit root), so comparing its commit counter against the
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
