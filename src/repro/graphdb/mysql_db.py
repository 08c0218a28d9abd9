"""MySQL GraphDB: adjacency BLOBs in a relational table (§4.1.3).

The schema of Figure 4.3: one table ``edges(src BIGINT, chunk INT, adj
BLOB)`` with a composite index on ``(src, chunk)``; each row's BLOB holds up
to 8 KB of serialized neighbor ids, and adjacency lists too large for one
row spill across rows distinguished by the ``chunk`` column.  All access
goes through the MiniSQL table's prepared statements, one plan per statement
shape, so every logical operation pays the per-statement round trip plus the
double hop through index and heap — the structural reasons MySQL trails
every other backend in Figures 5.3–5.5.
"""

from __future__ import annotations

import numpy as np

from ..simcluster.disk import BlockDevice
from ..storage.minisql import EdgesTable
from .bdb_db import CHUNK_ENTRIES
from .interface import GraphDB

__all__ = ["MySQLGraphDB"]


class MySQLGraphDB(GraphDB):
    """Adjacency BLOB rows behind prepared statements (MySQL stand-in)."""

    name = "MySQL"

    def __init__(self, device_provider, shared_cache=None, **kwargs):
        """``device_provider(name) -> BlockDevice`` supplies the engine's files."""
        super().__init__(**kwargs)
        self.db = EdgesTable(device_provider, self.clock, self.cpu, shared_cache=shared_cache)
        self._tails: dict[int, tuple[int, int]] = {}

    @staticmethod
    def _pack(neighbors: np.ndarray) -> bytes:
        return np.ascontiguousarray(neighbors.astype("<u8")).tobytes()

    @staticmethod
    def _unpack(blob: bytes) -> np.ndarray:
        return np.frombuffer(blob, dtype="<u8").astype(np.int64)

    def _tail_of(self, vertex: int) -> tuple[int, int]:
        tail = self._tails.get(vertex)
        if tail is None:
            row = self.db.tail_probe(vertex)
            if row is not None:
                chunk_no, blob = row
                tail = (chunk_no, len(blob) // 8)
            else:
                tail = (-1, CHUNK_ENTRIES)
            self._tails[vertex] = tail
        return tail

    def _store_edges(self, edges: np.ndarray) -> None:
        if len(edges) == 0:
            return
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
                take = min(CHUNK_ENTRIES - used if used < CHUNK_ENTRIES else 0, len(new) - pos)
                if take > 0:
                    blob = self.db.point_probe(vertex, chunk_no)[0]
                    merged = np.concatenate([self._unpack(blob), new[pos : pos + take]])
                    self.db.update(vertex, chunk_no, self._pack(merged))
                    used += take
                    pos += take
                else:
                    chunk_no += 1
                    used = 0
                    take = min(CHUNK_ENTRIES, len(new) - pos)
                    self.db.insert(vertex, chunk_no, self._pack(new[pos : pos + take]))
                    used = take
                    pos += take
            self._tails[vertex] = (chunk_no, used)

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        blobs = self.db.vertex_probe(vertex)
        if not blobs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self._unpack(blob) for blob in blobs])

    def _expand_fringe(self, vertices: np.ndarray) -> np.ndarray:
        """Batch fringe SELECTs in ascending ``src`` order.

        Each statement still pays its round trip (the structural MySQL
        overhead the figures measure), but issuing the fringe's
        lookups in sorted key order walks the ``(src, chunk)`` index
        monotonically — B-tree page and heap access coalesce instead of
        bouncing across the file — and duplicate fringe entries reuse the
        first result.  Emission order matches the per-vertex path exactly.
        """
        if not self.batch_io or len(vertices) == 0:
            return super()._expand_fringe(vertices)
        fetched = {v: self._get_adjacency(v) for v in np.unique(vertices).tolist()}
        lists = [fetched[v] for v in vertices.tolist()]
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        self._account_fringe(lens)
        return np.concatenate(lists)

    def _walk_adjacency(self, vertices=None):
        """One range SELECT answers the whole bottom-up scan.

        ``WHERE src >= lo AND src <= hi ORDER BY src, chunk`` runs as a
        sequential heap scan plus an in-memory sort — a single statement
        round trip instead of one per vertex, which is exactly the trade
        the bottom-up level wants from this backend.  Row parse CPU is
        charged by the table; per-edge claim checks are the caller's
        (early-exit accounting).
        """
        wset = None
        if vertices is not None:
            wanted = np.unique(np.asarray(vertices, dtype=np.int64))
            if len(wanted) == 0:
                return
            wset = set(int(v) for v in wanted)
            rows = self.db.range_scan(int(wanted[0]), int(wanted[-1]))
        else:
            rows = self.db.ordered_scan()
        cur = None
        chunks: list[np.ndarray] = []
        for src, blob in rows:
            if src != cur:
                if chunks:
                    yield cur, np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                cur, chunks = src, []
            if wset is None or src in wset:
                chunks.append(self._unpack(blob))
        if chunks:
            yield cur, np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    def _local_vertices(self) -> np.ndarray:
        return np.unique(np.array(self.db.source_scan(), dtype=np.int64))

    def flush(self) -> None:
        self.db.flush()
