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
variable-length), the durable commit record carries a distinct magic plus
that byte extent, and opening a log with the wrong mode raises instead of
mis-parsing it.
"""

from __future__ import annotations

import struct

import numpy as np

from ..simcluster.disk import BlockDevice
from ..util.errors import CorruptBlockError, GraphStorageException
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
# checksummed deployment mode).  Logical layout on the meta device, one
# 4 KiB frame per field so every update is a single whole-frame write:
#
#   0     commit slot A \  record (magic, seqno, nedges); the slot
#   4096  commit slot B /  alternates by seqno parity, so a torn commit
#                          write can never damage the previous commit
#   8192  tail guard header (magic, seqno, tail frame offset)
#   12288 tail guard payload (pre-append copy of the committed tail frame)
#
# The guard protects the one frame an append may read-modify-write: if the
# device crashes mid-append, the torn write has destroyed *committed*
# bytes, and recovery restores them from the guard.  A guard whose seqno
# matches an adopted commit is stale (that flush completed) and ignored.
_META_RECORD = struct.Struct(">QQQ")  # magic, seqno, nedges
_META_MAGIC = 0x5354524D4C4F4731  # "STRMLOG1"
# Compressed logs commit a byte extent too (records are variable-length);
# the distinct magic makes a mode mismatch detectable at restore time.
_META_RECORD_C = struct.Struct(">QQQQ")  # magic, seqno, nedges, cbytes
_META_MAGIC_C = 0x5354524D4C4F4732  # "STRMLOG2"
_META_FRAME = 4096
_GUARD_HEADER_OFF = 2 * _META_FRAME
_GUARD_PAYLOAD_OFF = 3 * _META_FRAME


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
        self._seq = 0
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        #: Raw log entries streamed past the CPU (>> useful edges returned).
        self.log_edges_scanned = 0
        if meta_device is not None and self._restore():
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
        committed = self._committed_bytes()
        guard_written = False
        if self.meta_device is not None and committed % _META_FRAME != 0:
            # The append below will rewrite the committed tail frame; a torn
            # write there destroys already-durable edges.  Save the frame
            # first (payload, then the header that makes the guard valid).
            tail_off = (committed // _META_FRAME) * _META_FRAME
            tail = self.device.read(tail_off, _META_FRAME)
            self.meta_device.write(_GUARD_PAYLOAD_OFF, tail)
            self.meta_device.write(
                _GUARD_HEADER_OFF,
                _META_RECORD.pack(_META_MAGIC, self._seq + 1, tail_off).ljust(
                    _META_FRAME, b"\x00"
                ),
            )
            guard_written = True
        self.device.write(committed, data)
        self._nedges += self._buffered
        self._cbytes = committed + len(data)
        self._buffer, self._buffered = [], 0
        if self.meta_device is not None:
            self._seq += 1
            if self.compress:
                record = _META_RECORD_C.pack(
                    _META_MAGIC_C, self._seq, self._nedges, self._cbytes
                )
            else:
                record = _META_RECORD.pack(_META_MAGIC, self._seq, self._nedges)
            slot = (self._seq % 2) * _META_FRAME
            self.meta_device.write(slot, record.ljust(_META_FRAME, b"\x00"))
            if guard_written:
                self.meta_device.write(_GUARD_HEADER_OFF, b"\x00" * _META_FRAME)

    def _committed_bytes(self) -> int:
        return self._cbytes if self.compress else self._nedges * _EDGE_BYTES

    def _read_meta_record(self, offset: int) -> tuple[int, int] | None:
        """Parse one (seqno, value) meta frame; None if absent/torn.

        A torn frame is rewritten as zeros so a later scrub does not count
        crash debris the recovery already accounted for as corruption.
        """
        try:
            raw = self.meta_device.read(offset, _META_FRAME)
        except CorruptBlockError:
            self.meta_device.write(offset, b"\x00" * _META_FRAME)
            return None
        magic, seq, value = _META_RECORD.unpack_from(raw)
        if magic != _META_MAGIC:
            return None
        return seq, value

    def _read_commit_record(self, offset: int) -> tuple[int, int, int] | None:
        """Parse one commit slot: ``(seqno, nedges, committed bytes)``.

        Returns None for an absent/torn slot (zeroing torn frames like
        :meth:`_read_meta_record`).  A slot whose magic belongs to the
        *other* log mode raises :class:`GraphStorageException` — the store
        was written with a different ``compress`` setting and scanning it
        with this one would mis-parse every record.
        """
        try:
            raw = self.meta_device.read(offset, _META_FRAME)
        except CorruptBlockError:
            self.meta_device.write(offset, b"\x00" * _META_FRAME)
            return None
        (magic,) = struct.unpack_from(">Q", raw)
        want = _META_MAGIC_C if self.compress else _META_MAGIC
        other = _META_MAGIC if self.compress else _META_MAGIC_C
        if magic == other:
            raise GraphStorageException(
                "StreamDB log mode mismatch: the on-disk commit record was "
                f"written with compress={not self.compress}, but this instance "
                f"is configured with compress={self.compress}"
            )
        if magic != want:
            return None
        if self.compress:
            _, seq, nedges, cbytes = _META_RECORD_C.unpack_from(raw)
            return seq, nedges, cbytes
        _, seq, nedges = _META_RECORD.unpack_from(raw)
        return seq, nedges, nedges * _EDGE_BYTES

    def _restore(self) -> bool:
        """Adopt the newest durable commit; heal crash debris.

        Reads both commit slots (a torn slot means the crash hit that very
        commit — the other slot still holds the previous one), restores the
        committed tail frame from the guard when an uncommitted append tore
        it, and truncates the log to the committed extent so torn appended
        frames vanish.  Returns True when a commit was adopted.
        """
        commits = [self._read_commit_record(slot * _META_FRAME) for slot in (0, 1)]
        commits = [c for c in commits if c is not None]
        if commits:
            self._seq, self._nedges, self._cbytes = max(commits)
            guard = self._read_meta_record(_GUARD_HEADER_OFF)
            if guard is not None and guard[0] > self._seq:
                # The flush that wrote this guard never committed, and its
                # append may have torn the committed tail frame — put the
                # pre-append copy back.  (A torn guard *payload* means the
                # crash preceded the append, so there is nothing to heal;
                # _read_meta_record already zeroed the header.)
                try:
                    payload = self.meta_device.read(_GUARD_PAYLOAD_OFF, _META_FRAME)
                    self.device.write(guard[1], payload)
                except CorruptBlockError:
                    pass
            if guard is not None:
                self.meta_device.write(_GUARD_HEADER_OFF, b"\x00" * _META_FRAME)
        # A crash can tear the guard-payload write itself; the frame is
        # never referenced (its header never landed) but would read as
        # corruption forever.  Zero the debris so scrubs stay honest.
        if self.meta_device.size() > _GUARD_PAYLOAD_OFF:
            try:
                self.meta_device.read(_GUARD_PAYLOAD_OFF, _META_FRAME)
            except CorruptBlockError:
                self.meta_device.write(_GUARD_PAYLOAD_OFF, b"\x00" * _META_FRAME)
        # Drop torn appended frames past the committed extent (everything,
        # when no commit ever landed).
        committed = self._committed_bytes()
        frames_end = -(-committed // _META_FRAME) * _META_FRAME
        if self.device.size() > frames_end:
            self.device.truncate(frames_end)
        return bool(commits)

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
        consumers read them back without touching the device.  Callers treat
        a replay as read-only (they gather into copies), so sharing is safe.
        Records are then parsed from memory (:meth:`_parse_record`).
        """
        self.flush()
        committed = self._committed_bytes()
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
        replay = []
        off = 0
        payload_bytes = 0
        while off < len(buf):
            record, span, payload = self._parse_record(buf, off)
            if len(record.neighbors):
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
