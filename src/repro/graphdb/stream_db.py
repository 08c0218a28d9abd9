"""StreamDB: append-only edge log with scan-based retrieval (§4.1.5).

Inspired by Active Disks [4]: edges are written to disk exactly in arrival
order (binary, 16 bytes per edge), making ingestion nothing but sequential
appends — "unrivaled ingestion performance" in Figure 5.5.  The price is
that *any* adjacency retrieval must scan the entire log, so callers must
batch a whole BFS fringe into one :meth:`expand_fringe` call to amortize
the scan across the level (the paper's stated contract for this backend).

With ``compress=True`` each flushed batch becomes one delta+varint record
instead of raw 16-byte pairs::

    magic u32 | nedges u32 | nbytes u32 | edge-block payload (nbytes)

where the payload is :func:`repro.util.varint.encode_edge_block` (edges
sorted by ``(src, dst)``, two gap streams).  Appends stay purely
sequential; every scan is charged ``varint_decode_seconds`` per payload byte
but streams 3-5x fewer bytes off the device.  A decoded record *is* a CSR
slice — group sources ascending, one sorted list each — so a replay is a
list of one ``AdjacencyBatch`` per record and every read picks its vertices
out of the group sources (``segments`` + ``gather_segments``): the order the
encoder wrote is the read plan, and nothing is expanded to ``(E, 2)``,
filtered edge by edge or re-sorted.  The raw log replays the same way: each
scan chunk of arrival-ordered pairs becomes one batch by one stable sort by
source, so a list keeps arrival order within a record, and both encodings
answer every read through one plan, in record order.
The committed extent is then tracked in *bytes* (records are
variable-length), the durable commit root carries that byte extent plus
the mode, and opening a log with the wrong mode raises instead of
mis-parsing it.

Each store keeps the replay of its last scan, keyed by the log bytes it was
parsed from (:meth:`StreamGraphDB._scan`).  Every scan still reads the whole
log off the device and is charged every decode and every entry as before; the
memo only spares the wall-clock work of parsing bytes parsed a moment ago.
Its batches are shared by every later read, so their arrays are read-only.
It holds one copy of the committed bytes plus their replay per store until
``close()``.
"""

from __future__ import annotations

import struct

import numpy as np

from ..simcluster.disk import BlockDevice
from ..util.errors import CorruptBlockError, GraphStorageException
from ..storage.commit import RECORD_START, CommitRoot
from ..util.varint import decode_edge_groups, encode_edge_block
from .interface import AdjacencyBatch, GraphDB, gather_segments

_EMPTY = np.empty(0, dtype=np.int64)

__all__ = ["StreamGraphDB"]

_EDGE_BYTES = 16  # two little-endian u64s
_SCAN_READ_BYTES = 65536 * _EDGE_BYTES  # one sequential device read
_WRITE_BUFFER_EDGES = 8192

# Compressed log record framing (compress=True): header + varint payload.
_CREC_HEADER = struct.Struct("<III")  # magic, nedges, nbytes
_CREC_MAGIC = 0x43474F4C  # "LOGC" little-endian

# Durable-commit metadata (only when a meta device is supplied — the
# checksummed deployment mode): the shared dual-slot commit root
# (repro.storage.commit) with the fields below, and at RECORD_START one
# frame of tail guard payload, a pre-append copy of the committed tail
# frame.  The guard protects the one frame an append may read-modify-write:
# a flush that must rewrite it first saves the frame, then commits a root
# that repeats the committed extent and names the frame (``guard_off``);
# if the append tears, recovery finds that root newest and restores the
# frame.  The flush's own root names no guard.
_ROOT_MAGIC = 0x5354524D4C4F4733  # "STRMLOG3"
_ROOT_FIELDS = struct.Struct("<QQQQQ")  # commits, nedges, cbytes, compress, guard_off
_NO_GUARD = (1 << 64) - 1
_GUARD_FRAME = 4096


class StreamGraphDB(GraphDB):
    """Append-only edge log; fringe retrieval by full sequential scan."""

    name = "StreamDB"

    def __init__(
        self,
        device: BlockDevice,
        meta_device: BlockDevice | None = None,
        compress: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.device = device
        self.meta_device = meta_device
        #: Delta+varint log records instead of raw 16-byte pairs (module doc).
        self.compress = compress
        self._nedges = 0
        #: Committed byte extent of the log (compressed records are
        #: variable-length; in raw mode this is always nedges * 16).
        self._cbytes = 0
        #: Flushes committed: the durable commit token (:meth:`commit_token`).
        self._commits = 0
        self._root = None
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        #: Raw log entries streamed past the CPU (>> useful edges returned).
        self.log_edges_scanned = 0
        #: Replay memo (:meth:`_scan`): ``(log bytes, their replay, payload
        #: bytes, entries)`` of the last scan.
        self._memo: tuple[bytes, list[AdjacencyBatch], int, int] | None = None
        if meta_device is not None:
            self._root = CommitRoot(meta_device, _ROOT_MAGIC, _ROOT_FIELDS)
            if self._restore():
                self._census_from_storage()
        elif device.size():
            self._adopt()
            self._census_from_storage()

    # -- ingestion ------------------------------------------------------

    def _store_edges(self, edges: np.ndarray) -> None:
        if len(edges) == 0:
            return
        self._buffer.append(edges.astype("<u8"))
        self._buffered += len(edges)
        if self._buffered >= _WRITE_BUFFER_EDGES:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        batch = np.vstack(self._buffer)
        if self.compress:
            payload = encode_edge_block(batch)
            data = _CREC_HEADER.pack(_CREC_MAGIC, len(batch), len(payload)) + payload
        else:
            data = np.ascontiguousarray(batch).tobytes()
        committed = self._cbytes
        if self._root is not None and committed % _GUARD_FRAME != 0:
            # The append below will rewrite the committed tail frame; a torn
            # write there destroys already-durable edges.  Save the frame
            # first, then commit a root naming it (module comment).
            tail_off = committed - committed % _GUARD_FRAME
            self.meta_device.write(RECORD_START, self.device.read(tail_off, _GUARD_FRAME))
            self._commit(tail_off)
        self.device.write(committed, data)
        self._nedges += self._buffered
        self._cbytes = committed + len(data)
        self._buffer, self._buffered = [], 0
        if self._root is not None:
            self._commits += 1
            self._commit(_NO_GUARD)

    def _commit(self, guard_off: int) -> None:
        self._root.commit(
            self._commits, self._nedges, self._cbytes, self.compress, guard_off
        )

    def close(self) -> None:
        super().close()
        self._memo = None

    def commit_token(self) -> int | None:
        return None if self._root is None else self._commits

    def _restore(self) -> bool:
        """Adopt the newest durable commit; heal crash debris.

        Reads the commit root (a torn slot means the crash hit that very
        commit — the other slot still holds the previous one), restores the
        committed tail frame from the guard when the newest root names one
        (its append may have torn the frame), and truncates the log to the
        committed extent so torn appended frames vanish.  Returns True when
        a commit was adopted.  A root written with the other ``compress``
        setting raises :class:`GraphStorageException`: scanning the log
        with this one would mis-parse every record.
        """
        root = self._root.load()
        if root is not None:
            self._commits, self._nedges, self._cbytes, compress, guard_off = root[1]
            if bool(compress) != self.compress:
                raise GraphStorageException(
                    "StreamDB log mode mismatch: the on-disk commit root was "
                    f"written with compress={bool(compress)}, but this instance "
                    f"is configured with compress={self.compress}"
                )
            if guard_off != _NO_GUARD:
                # The flush that named this guard never committed its own
                # root: put the pre-append copy back, and commit a root
                # without the guard so the next flush may reuse its frame.
                self.device.write(guard_off, self.meta_device.read(RECORD_START, _GUARD_FRAME))
                self._commit(_NO_GUARD)
        # A crash can tear the guard-payload write itself; the frame is
        # never referenced (no root named it) but would read as corruption
        # forever.  Zero the debris so scrubs stay honest.
        if self.meta_device.size() > RECORD_START:
            try:
                self.meta_device.read(RECORD_START, _GUARD_FRAME)
            except CorruptBlockError:
                self.meta_device.write(RECORD_START, b"\x00" * _GUARD_FRAME)
        # Drop torn appended frames past the committed extent (everything,
        # when no commit ever landed).
        frames_end = -(-self._cbytes // _GUARD_FRAME) * _GUARD_FRAME
        if self.device.size() > frames_end:
            self.device.truncate(frames_end)
        return root is not None

    def _adopt(self) -> None:
        """Adopt a log written with no commit root (paper mode) the way
        :meth:`_scan` reads it, or raise :class:`GraphStorageException`
        where that cannot be exact: a raw log is whole 16-byte pairs whose
        first word is not the compressed-record magic; a compressed log's
        record headers walk exactly to the end of the device."""
        size = self.device.size()
        if self.compress:
            buf = self.device.read(0, size)
            off = nedges = 0
            while off + _CREC_HEADER.size <= size:
                magic, n, nbytes = _CREC_HEADER.unpack_from(buf, off)
                if magic != _CREC_MAGIC:
                    break
                off += _CREC_HEADER.size + nbytes
                nedges += n
            exact = off == size
        else:
            nedges = size // _EDGE_BYTES
            exact = size % _EDGE_BYTES == 0 and (
                _CREC_HEADER.unpack(self.device.read(0, _CREC_HEADER.size))[0] != _CREC_MAGIC
            )
        if not exact:
            raise GraphStorageException(
                f"StreamDB log {self.device.name} ({size} bytes) does not parse "
                f"as a compress={self.compress} log with no commit root"
            )
        self._nedges, self._cbytes = nedges, size

    # -- retrieval ---------------------------------------------------------
    #
    # A *replay* is what a read streams past the CPU: one ``AdjacencyBatch``
    # per log record, in log order — see the module doc.

    def _scan(self) -> list[AdjacencyBatch]:
        """Stream the whole edge log from disk in large sequential chunks.

        Under the concurrent multiplexer a :class:`ScanBoard` may be armed
        for log replays: the first consumer of a scheduling round performs
        the device pass and publishes the parsed records (keyed by the
        committed edge count, so an ingest invalidates them); later
        consumers read them back without touching the device.

        Otherwise the whole committed extent is read, every chunk charged and
        frame-checked by the device, and only then compared with the memo's
        bytes: on equality the memo's records are the replay; any other bytes
        are parsed from offset 0 (:meth:`_parse_record`), so a damaged or
        torn log raises as it would without the memo.  Hit or miss, the
        replay is checked against the committed edge count and charged
        ``varint_decode_seconds`` per payload byte.  Memoised arrays are
        read-only: a replay is shared by every later read.  The memo holds
        the committed log bytes plus their replay until :meth:`close`, per
        store, so a deployment of P back-ends keeps P of them at once.
        """
        self.flush()
        committed = self._cbytes
        if committed and self.device.size() < committed:
            raise CorruptBlockError(
                self.device.name,
                self.device.size(),
                committed - self.device.size(),
                f"edge log holds {self.device.size()} bytes but "
                f"{committed} are committed — truncated log?",
            )
        board = getattr(self, "scan_board", None)
        if board is not None and board.armed("log-replay"):
            hit = board.lookup("log-replay", self._nedges)
            if hit is not None:
                return hit
        else:
            board = None
        chunks = []
        offset = 0
        while offset < committed:
            take = min(committed - offset, _SCAN_READ_BYTES)
            chunks.append(self.device.read(offset, take))
            offset += take
        buf = b"".join(chunks)
        memo_buf, memo_replay, memo_payload, memo_edges = self._memo or (b"", [], 0, 0)
        if buf == memo_buf:
            replay, payload_bytes, total_edges = memo_replay, memo_payload, memo_edges
        else:
            replay, off, payload_bytes = [], 0, 0
            while off < len(buf):
                record, span, payload = self._parse_record(buf, off)
                if len(record.neighbors):
                    for a in (record.vertices, record.offsets, record.neighbors):
                        a.flags.writeable = False
                    replay.append(record)
                off += span
                payload_bytes += payload
            total_edges = sum(len(record.neighbors) for record in replay)
        if total_edges != self._nedges:
            raise CorruptBlockError(
                self.device.name,
                0,
                len(buf),
                f"edge log decodes to {total_edges} edges but "
                f"{self._nedges} are committed",
            )
        self._memo = (buf, replay, payload_bytes, total_edges)
        if payload_bytes:
            self.clock.advance(payload_bytes * self.cpu.varint_decode_seconds)
        if board is not None:
            board.publish("log-replay", self._nedges, replay)
        return replay

    def _parse_record(self, buf: bytes, off: int) -> tuple[AdjacencyBatch, int, int]:
        """Parse the record at ``buf[off:]`` (``buf`` is the log from device
        offset 0): ``(record batch, bytes it spans, payload bytes decoded)``.

        The one parser of both encodings.  A raw record has no framing: it
        spans one scan chunk, and its arrival-ordered pairs become a batch
        by one stable sort by source.  A compressed record is framed by its
        header: a truncated header or payload, a bad magic and a payload the
        decoder does not consume exactly raise :class:`CorruptBlockError` at
        the offending offset; the varint codec raises
        :class:`GraphStorageException` on non-monotone streams.
        """
        if not self.compress:
            span = min(len(buf) - off, _SCAN_READ_BYTES)
            edges = np.frombuffer(buf, dtype="<u8", count=span // 8, offset=off)
            return AdjacencyBatch.from_edges(edges.reshape(-1, 2).astype(np.int64)), span, 0
        if off + _CREC_HEADER.size > len(buf):
            raise CorruptBlockError(
                self.device.name,
                off,
                len(buf) - off,
                "truncated compressed edge-record header",
            )
        magic, nedges, nbytes = _CREC_HEADER.unpack_from(buf, off)
        if magic != _CREC_MAGIC:
            raise CorruptBlockError(
                self.device.name,
                off,
                _CREC_HEADER.size,
                f"bad compressed edge-record magic 0x{magic:08x}",
            )
        off += _CREC_HEADER.size
        if off + nbytes > len(buf):
            raise CorruptBlockError(
                self.device.name,
                off,
                nbytes - (len(buf) - off),
                f"compressed edge record promises {nbytes} payload bytes "
                f"but only {len(buf) - off} remain in the committed extent",
            )
        sources, offsets, dsts, consumed = decode_edge_groups(
            buf[off : off + nbytes], nedges, what="StreamDB log record"
        )
        if consumed != nbytes:
            raise CorruptBlockError(
                self.device.name,
                off,
                nbytes,
                f"compressed edge record decoded {consumed} of its "
                f"{nbytes} payload bytes",
            )
        return AdjacencyBatch(sources, offsets, dsts), _CREC_HEADER.size + nbytes, nbytes

    def _replay(self) -> list[AdjacencyBatch]:
        """The whole log, streamed past the CPU (:meth:`_scan`), charged one
        ``edge_visit_seconds`` per entry."""
        replay = self._scan()
        entries = sum(len(r.neighbors) for r in replay)
        self.clock.advance(entries * self.cpu.edge_visit_seconds)
        self.log_edges_scanned += entries
        return replay

    @staticmethod
    def _pick(records: list[AdjacencyBatch], wanted: np.ndarray) -> list[tuple]:
        """Per record, the lists it holds of ``wanted`` (sorted, unique), in
        that order: ``(neighbors, bounds)`` as :func:`gather_segments` packs
        them — work proportional to what is asked for, not to the log."""
        return [gather_segments(r.neighbors, *r.segments(wanted)) for r in records]

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        wanted = np.array([vertex], dtype=np.int64)
        replay = self._replay()
        if not replay:
            return _EMPTY
        return np.concatenate([found for found, _ in self._pick(replay, wanted)])

    def _expand_fringe(self, vertices: np.ndarray) -> np.ndarray:
        """One full scan answers the entire fringe (the Active-Disks trick),
        in record order — record by record, vertex ascending within one —
        each wanted vertex's entries once, however often the fringe names it.

        The CPU cost covers every log entry streamed past the filter, but
        ``stats.edges_scanned`` (the "useful work" figure the edges/s charts
        report) only counts the adjacency entries actually returned.
        """
        wanted = np.unique(vertices)
        replay = self._replay()
        self.stats.adjacency_requests += len(vertices)
        if not replay:
            return _EMPTY
        matched = np.concatenate([found for found, _ in self._pick(replay, wanted)])
        self.stats.edges_scanned += len(matched)
        return matched

    def _scan_adjacency(self, vertices=None, done=None):
        """One log replay answers the whole bottom-up scan.

        The storage order of StreamDB *is* the log, so the sequential plan
        is the same full scan ``expand_fringe`` uses: stream every logged
        edge past the CPU once, then hand out one batch grouped by source
        (complete lists: ``done`` has nothing left to stop) — one batch even
        when the log holds several records: a batch per record would let the
        claim scan retire vertices between them, which moves early-exit
        accounting and with it the virtual clock.
        Per-edge claim-check time is the caller's (early-exit accounting).
        """
        wanted = None
        if vertices is not None:
            wanted = np.unique(vertices)
        replay = self._replay()
        if wanted is not None:
            replay = [
                AdjacencyBatch.nonempty(wanted, bounds, found)
                for found, bounds in self._pick(replay, wanted)
                if len(found)
            ]
        if len(replay) > 1:
            # A vertex recurring across records: its segments in record order.
            yield AdjacencyBatch.concat(replay).grouped()
        elif replay:
            yield replay[0]

    @property
    def num_edges_logged(self) -> int:
        return self._nedges + self._buffered
