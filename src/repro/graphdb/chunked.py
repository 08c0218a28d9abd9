"""The Figure 4.3 chunk store shared by BerkeleyDB and MySQL (§4.1.3–4.1.4).

Both backends hold a vertex's adjacency list as fixed-capacity binary chunks
of 8 KB ("as suggested by the MySQL documentation", and the same chunking for
BerkeleyDB), one row per ``(vertex, chunk number)`` key.  Everything about
that layout lives here once: packing a chunk, the per-vertex tail memo, the
append-and-spill loop that fills the tail chunk and opens new ones, the
per-vertex read, the walk that groups rows in key order into lists, and the
fringe emission.  A backend supplies only its engine's primitives — the rows
of one vertex, its tail row, reading, updating and inserting one row, and
rows in key order over a source range or over the whole store — so each of
them reaches storage through exactly the calls it always made.
"""

from __future__ import annotations

import abc

import numpy as np

from .interface import GraphDB

__all__ = ["CHUNK_BYTES", "CHUNK_ENTRIES", "ChunkedGraphDB"]

#: 8 KB chunks of little-endian u64 neighbour ids.
CHUNK_BYTES = 8192
CHUNK_ENTRIES = CHUNK_BYTES // 8

_EMPTY = np.empty(0, dtype=np.int64)


def pack_chunk(neighbors: np.ndarray) -> bytes:
    return np.ascontiguousarray(neighbors.astype("<u8")).tobytes()


def unpack_chunk(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype="<u8").astype(np.int64)


class ChunkedGraphDB(GraphDB):
    """Adjacency lists as ``(vertex, chunk)`` rows of at most
    :data:`CHUNK_ENTRIES` neighbours, over an engine's row primitives."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # Lazily discovered tail position per vertex: (chunk_no, entries_used).
        self._tails: dict[int, tuple[int, int]] = {}

    # -- engine primitives -------------------------------------------------

    @abc.abstractmethod
    def _vertex_rows(self, vertex: int) -> list[bytes]:
        """Every chunk of ``vertex``, chunk number ascending."""

    @abc.abstractmethod
    def _tail_row(self, vertex: int) -> tuple[int, bytes] | None:
        """``(chunk number, chunk)`` of ``vertex``'s last chunk, if any."""

    @abc.abstractmethod
    def _read_row(self, vertex: int, chunk_no: int) -> bytes:
        """One existing chunk."""

    @abc.abstractmethod
    def _update_row(self, vertex: int, chunk_no: int, data: bytes) -> None:
        """Replace one existing chunk."""

    @abc.abstractmethod
    def _insert_row(self, vertex: int, chunk_no: int, data: bytes) -> None:
        """Add a new chunk."""

    @abc.abstractmethod
    def _ordered_rows(self, lo: int | None = None, hi: int | None = None):
        """``(vertex, chunk)`` pairs in key order, over sources ``lo..hi``
        inclusive (``None``: the whole store)."""

    # -- the layout ----------------------------------------------------------

    def _tail_of(self, vertex: int) -> tuple[int, int]:
        """Last chunk number and its fill for ``vertex`` (queried once)."""
        tail = self._tails.get(vertex)
        if tail is None:
            row = self._tail_row(vertex)
            # No chunks yet: "full" forces a new one.
            tail = (-1, CHUNK_ENTRIES) if row is None else (row[0], len(row[1]) // 8)
            self._tails[vertex] = tail
        return tail

    def _store_edges(self, edges: np.ndarray) -> None:
        if len(edges) == 0:
            return
        # Group arrivals by source so each vertex's tail is touched once.
        order = np.argsort(edges[:, 0], kind="stable")
        srcs = edges[order, 0]
        dsts = edges[order, 1]
        boundaries = np.flatnonzero(np.diff(srcs)) + 1
        for group in np.split(np.arange(len(srcs)), boundaries):
            vertex = int(srcs[group[0]])
            new = dsts[group]
            chunk_no, used = self._tail_of(vertex)
            pos = 0
            while pos < len(new):
                if used >= CHUNK_ENTRIES:
                    chunk_no, used = chunk_no + 1, 0
                    take = min(CHUNK_ENTRIES, len(new) - pos)
                    self._insert_row(vertex, chunk_no, pack_chunk(new[pos : pos + take]))
                else:
                    take = min(CHUNK_ENTRIES - used, len(new) - pos)
                    old = unpack_chunk(self._read_row(vertex, chunk_no))
                    merged = np.concatenate([old, new[pos : pos + take]])
                    self._update_row(vertex, chunk_no, pack_chunk(merged))
                used += take
                pos += take
            self._tails[vertex] = (chunk_no, used)

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        rows = self._vertex_rows(vertex)
        if not rows:
            return _EMPTY
        return np.concatenate([unpack_chunk(row) for row in rows])

    def _fetch(self, wanted: np.ndarray) -> dict[int, np.ndarray]:
        """The lists of ``wanted`` (sorted, unique) for a batched fringe:
        one per-vertex read each, in ascending key order."""
        return {v: self._get_adjacency(v) for v in wanted.tolist()}

    def _expand_fringe(self, vertices: np.ndarray) -> np.ndarray:
        """Batched fringe reads in ascending key order (:meth:`_fetch`).

        Visiting the fringe's keys in sorted order walks the ``(vertex,
        chunk)`` index monotonically — page and heap accesses coalesce
        instead of bouncing across the file — and a vertex named twice is
        read once.  Lists are emitted per vertex in fringe order, chunks
        ascending: element for element the per-vertex path's answer.
        """
        if not self.batch_io:
            return super()._expand_fringe(vertices)
        fetched = self._fetch(np.unique(vertices))
        lists = [fetched.get(v, _EMPTY) for v in vertices.tolist()]
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        self._account_fringe(lens)
        return np.concatenate(lists)

    def _walk_adjacency(self, vertices=None):
        """One pass over the rows in key order — between the smallest and
        largest wanted source, or over the whole store — yielding each
        wanted vertex's chunks joined.  The engine charges its rows; the
        per-edge claim check is the caller's (early-exit accounting)."""
        wset = None
        if vertices is not None:
            wanted = np.unique(vertices)
            wset = set(wanted.tolist())
            rows = self._ordered_rows(int(wanted[0]), int(wanted[-1]))
        else:
            rows = self._ordered_rows()
        cur = None
        chunks: list[np.ndarray] = []
        for vertex, data in rows:
            if vertex != cur:
                if chunks:
                    yield cur, np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                cur, chunks = vertex, []
            if wset is None or vertex in wset:
                chunks.append(unpack_chunk(data))
        if chunks:
            yield cur, np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
