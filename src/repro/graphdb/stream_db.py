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
slice — group sources ascending, one sorted list each — so a compressed
replay is a list of one ``AdjacencyBatch`` per record and every read picks
its vertices out of the group sources (``segments`` + ``gather_segments``):
the order the encoder wrote is the read plan, and nothing is expanded to
``(E, 2)``, filtered edge by edge or re-sorted.  The raw log is in arrival
order, has no such order to exploit, and keeps the flat ``(E, 2)`` plan.
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
_SCAN_CHUNK_EDGES = 65536
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
        #: Semi-EM selective-I/O directory: one ``(offset, nbytes, nedges,
        #: src_lo, src_hi)`` row per flushed log record, appended as the
        #: record is written (free — the extent is known at flush time).
        #: ``None`` right after a restore (the extents cannot be known
        #: without a full log pass); the *first* full scan after the
        #: restore rebuilds it as a side effect — that pass touches every
        #: committed byte anyway — so restored stores regain selective
        #: adjacency I/O instead of falling back to whole-log scans forever.
        self._records: list[tuple[int, int, int, int, int]] | None = []
        #: Selective scans served from the directory / records they skipped.
        self.selective_scans = 0
        self.records_skipped = 0
        #: Rebuild the directory on the next full device pass (set by a
        #: restore, cleared once the pass has run).
        self._rebuild_records = False
        self.restored = False
        if meta_device is not None:
            self.restored = self._restore()
            if self.restored:
                self._records = None
                self._rebuild_records = True

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
        if self._records is not None:
            # Directory row for this record: byte extent plus the source-id
            # range it covers.  Min/max over the batch is ingest-path work a
            # deployment would fold into the same pass that serializes it.
            self._records.append(
                (
                    committed,
                    len(data),
                    len(batch),
                    int(batch[:, 0].min()),
                    int(batch[:, 0].max()),
                )
            )
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
    # A *replay* is what a read streams past the CPU: one ``(E, 2)`` int64
    # array in arrival order (raw log), or one ``AdjacencyBatch`` per log
    # record (compressed log) — see the module doc.

    def _scan(self) -> "np.ndarray | list[AdjacencyBatch]":
        """Stream the whole edge log from disk in large sequential chunks.

        Under the concurrent multiplexer a :class:`ScanBoard` may be armed
        for log replays: the first consumer of a scheduling round performs
        the device pass and publishes the decoded replay (keyed by the
        committed edge count, so an ingest invalidates it); later consumers
        read it back without touching the device.  Callers treat a replay
        as read-only (they gather into copies), so sharing is safe.
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
        rows = [] if self._rebuild_records else None
        if self.compress:
            replay = self._scan_compressed(committed, rows=rows)
        else:
            chunks = []
            offset = 0
            remaining = self._nedges
            while remaining > 0:
                take = min(remaining, _SCAN_CHUNK_EDGES)
                raw = self.device.read(offset, take * _EDGE_BYTES)
                chunk = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).astype(np.int64)
                if rows is not None and len(chunk):
                    # Post-restore directory rebuild: the raw log has no
                    # record framing, so synthesize fixed-slice rows with
                    # the slice's true source-id extent.
                    rows.append(
                        (
                            offset,
                            take * _EDGE_BYTES,
                            take,
                            int(chunk[:, 0].min()),
                            int(chunk[:, 0].max()),
                        )
                    )
                chunks.append(chunk)
                offset += take * _EDGE_BYTES
                remaining -= take
            replay = np.vstack(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
        if rows is not None:
            self._records = rows
            self._rebuild_records = False
        if board is not None:
            board.publish("log-replay", self._nedges, replay)
        return replay

    def _parse_record(self, buf: bytes, off: int, origin: int = 0) -> tuple[AdjacencyBatch, int]:
        """Parse the compressed record at ``buf[off:]`` (``buf`` begins at
        device offset ``origin``): ``(record batch, payload bytes)``.

        The one parser of both replays.  A truncated header or payload, a
        bad magic and a payload the decoder does not consume exactly raise
        :class:`CorruptBlockError` at the offending offset; the varint codec
        raises :class:`GraphStorageException` on non-monotone streams.
        """
        if off + _CREC_HEADER.size > len(buf):
            raise CorruptBlockError(
                self.device.name,
                origin + off,
                len(buf) - off,
                "truncated compressed edge-record header",
            )
        magic, nedges, nbytes = _CREC_HEADER.unpack_from(buf, off)
        if magic != _CREC_MAGIC:
            raise CorruptBlockError(
                self.device.name,
                origin + off,
                _CREC_HEADER.size,
                f"bad compressed edge-record magic 0x{magic:08x}",
            )
        off += _CREC_HEADER.size
        if off + nbytes > len(buf):
            raise CorruptBlockError(
                self.device.name,
                origin + off,
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
                origin + off,
                nbytes,
                f"compressed edge record decoded {consumed} of its "
                f"{nbytes} payload bytes",
            )
        return AdjacencyBatch(sources, offsets, dsts), nbytes

    def _scan_compressed(self, committed: int, rows: list | None = None) -> list[AdjacencyBatch]:
        """Stream and decode the compressed record log up to ``committed``.

        The device pass is the same large sequential chunking as the raw
        scan (just over fewer bytes); records are then parsed from memory
        (:meth:`_parse_record`), one batch each.
        Charges ``varint_decode_seconds`` per payload byte decoded.
        ``rows`` (post-restore directory rebuild) collects one exact
        ``(offset, nbytes, nedges, src_lo, src_hi)`` row per record parsed.
        """
        chunks = []
        offset = 0
        chunk_bytes = _SCAN_CHUNK_EDGES * _EDGE_BYTES
        while offset < committed:
            take = min(committed - offset, chunk_bytes)
            chunks.append(self.device.read(offset, take))
            offset += take
        buf = b"".join(chunks)
        records = []
        off = 0
        payload_bytes = 0
        total_edges = 0
        while off < len(buf):
            record, nbytes = self._parse_record(buf, off)
            nedges = len(record.neighbors)
            if nedges:
                records.append(record)
                if rows is not None:
                    rows.append(
                        (
                            off,
                            _CREC_HEADER.size + nbytes,
                            nedges,
                            int(record.vertices[0]),
                            int(record.vertices[-1]),
                        )
                    )
            off += _CREC_HEADER.size + nbytes
            payload_bytes += nbytes
            total_edges += nedges
        if total_edges != self._nedges:
            raise CorruptBlockError(
                self.device.name,
                0,
                len(buf),
                f"compressed log decodes to {total_edges} edges but "
                f"{self._nedges} are committed",
            )
        self.clock.advance(payload_bytes * self.cpu.varint_decode_seconds)
        return records

    # -- semi-EM selective I/O (GraphMP-style record scheduling) -----------

    #: Above this fraction of directory records holding active sources, the
    #: selective plan degenerates into the full sequential scan (same bytes,
    #: worse access pattern) — fall back to the shared whole-log replay.
    SELECTIVE_MAX_FRACTION = 0.5

    def _record_mask(self, wanted: np.ndarray) -> np.ndarray | None:
        """Which directory records hold at least one wanted source vertex."""
        if self._records is None or not self._records:
            return None
        los = np.fromiter((r[3] for r in self._records), dtype=np.int64)
        his = np.fromiter((r[4] for r in self._records), dtype=np.int64)
        # A record matters iff some wanted id falls inside [lo, hi].
        idx = np.searchsorted(wanted, los)
        hit = idx < len(wanted)
        mask = np.zeros(len(los), dtype=bool)
        mask[hit] = wanted[np.minimum(idx[hit], len(wanted) - 1)] <= his[hit]
        return mask

    def _scan_selective(self, wanted: np.ndarray) -> "np.ndarray | list[AdjacencyBatch] | None":
        """Fetch only the log records whose source extent intersects ``wanted``.

        Returns the replay of the selected records in log order — a
        superset of the wanted adjacency that is *filter-equivalent* to
        the full log (skipped records cannot contain wanted sources), so
        every caller's pick produces bit-identical answers.  ``None`` means
        the selective plan does not apply (no directory, a shared scan is
        armed, or the frontier covers most records) and the caller should
        use :meth:`_scan`.
        """
        if not self.semi_external or len(wanted) == 0:
            return None
        self.flush()
        board = getattr(self, "scan_board", None)
        if board is not None and board.armed("log-replay"):
            # A whole-log pass is being shared across queries this round;
            # piggybacking on it is cheaper than a private selective fetch.
            return None
        mask = self._record_mask(wanted)
        if mask is None:
            return None
        picked = np.flatnonzero(mask)
        if len(picked) > self.SELECTIVE_MAX_FRACTION * len(mask):
            return None
        self.selective_scans += 1
        self.records_skipped += len(mask) - len(picked)
        if len(picked) == 0:
            return [] if self.compress else np.zeros((0, 2), dtype=np.int64)
        # Coalesce adjacent selected records into single sequential reads.
        runs: list[tuple[int, int]] = []
        for i in picked:
            off, nbytes = self._records[i][0], self._records[i][1]
            if runs and runs[-1][0] + runs[-1][1] == off:
                runs[-1] = (runs[-1][0], runs[-1][1] + nbytes)
            else:
                runs.append((off, nbytes))
        buf = {off: self.device.read(off, nbytes) for off, nbytes in runs}
        parts = []
        payload_bytes = 0
        run_iter = iter(runs)
        run_off, run_data = None, b""
        for i in picked:
            off, nbytes, nedges = self._records[i][:3]
            if run_off is None or off >= run_off + len(run_data):
                run_off = next(run_iter)[0]
                run_data = buf[run_off]
            at = off - run_off
            if self.compress:
                record, payload = self._parse_record(run_data, at, origin=run_off)
                if len(record.neighbors) != nedges or _CREC_HEADER.size + payload != nbytes:
                    raise CorruptBlockError(
                        self.device.name,
                        off,
                        nbytes,
                        "directory/record mismatch in selective scan",
                    )
                payload_bytes += payload
                parts.append(record)
            else:
                raw = run_data[at : at + nbytes]
                parts.append(
                    np.frombuffer(raw, dtype="<u8").reshape(-1, 2).astype(np.int64)
                )
        if payload_bytes:
            self.clock.advance(payload_bytes * self.cpu.varint_decode_seconds)
        return parts if self.compress else np.vstack(parts)

    def frontier_block_coverage(self, vertices) -> float | None:
        if not self.semi_external:
            return None
        self.flush()
        wanted = np.unique(np.asarray(vertices, dtype=np.int64))
        mask = self._record_mask(wanted)
        if mask is None:
            return None
        return float(np.count_nonzero(mask)) / len(mask)

    def _directory_bytes(self) -> int:
        return 0 if self._records is None else len(self._records) * 5 * 8

    def _replay(self, wanted: np.ndarray | None) -> "np.ndarray | list[AdjacencyBatch]":
        """The log entries a read streams past the CPU — the selective plan
        for ``wanted`` (sorted, unique) where it applies, else the whole log
        — charged one ``edge_visit_seconds`` per entry."""
        replay = None if wanted is None else self._scan_selective(wanted)
        if replay is None:
            replay = self._scan()
        entries = sum(len(r.neighbors) for r in replay) if self.compress else len(replay)
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
        replay = self._replay(wanted)
        if len(replay) == 0:
            return np.empty(0, dtype=np.int64)
        if self.compress:
            return np.concatenate([found for found, _ in self._pick(replay, wanted)])
        return replay[replay[:, 0] == vertex, 1]

    def _expand_fringe(self, vertices: np.ndarray) -> np.ndarray:
        """One full scan answers the entire fringe (the Active-Disks trick),
        in log order: each wanted vertex's entries once, however often the
        fringe names it.

        The CPU cost covers every log entry streamed past the filter, but
        ``stats.edges_scanned`` (the "useful work" figure the edges/s charts
        report) only counts the adjacency entries actually returned.
        """
        if len(vertices) == 0:
            return _EMPTY
        wanted = np.unique(vertices)
        replay = self._replay(wanted)
        self.stats.adjacency_requests += len(vertices)
        if len(replay) == 0:
            return _EMPTY
        if self.compress:
            # Record by record, vertex ascending within one: log order.
            matched = np.concatenate([found for found, _ in self._pick(replay, wanted)])
        else:
            matched = replay[np.isin(replay[:, 0], vertices), 1]
        self.stats.edges_scanned += len(matched)
        return matched

    def _scan_adjacency(self, vertices=None, done=None):
        """One log replay answers the whole bottom-up scan.

        The storage order of StreamDB *is* the log, so the sequential plan
        is the same full scan ``expand_fringe`` uses: stream every logged
        edge past the CPU once, then hand out one batch grouped by source
        (complete lists: ``done`` has nothing left to stop) — one batch even
        when a compressed log holds several records: a batch per record
        would let the claim scan retire vertices between them, which moves
        early-exit accounting and with it the virtual clock.
        Per-edge claim-check time is the caller's (early-exit accounting).
        """
        wanted = None
        if vertices is not None:
            wanted = np.unique(np.asarray(vertices, dtype=np.int64))
            if len(wanted) == 0:
                return
        replay = self._replay(wanted)
        if len(replay) == 0:
            return
        if not self.compress:
            if wanted is not None:
                replay = replay[np.isin(replay[:, 0], wanted)]
                if len(replay) == 0:
                    return
            yield AdjacencyBatch.from_edges(replay)
            return
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

    def _local_vertices(self) -> np.ndarray:
        replay = self._replay(None)
        if len(replay) == 0:
            return np.empty(0, dtype=np.int64)
        if self.compress:
            return np.unique(np.concatenate([record.vertices for record in replay]))
        return np.unique(replay[:, 0])

    @property
    def num_edges_logged(self) -> int:
        return self._nedges + self._buffered
