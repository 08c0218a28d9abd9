"""MySQL GraphDB: adjacency BLOBs in a relational table (§4.1.3).

The schema of Figure 4.3: one table ``edges(src BIGINT, chunk INT, adj
BLOB)`` with a composite index on ``(src, chunk)``; each row's BLOB holds up
to 8 KB of serialized neighbor ids, and adjacency lists too large for one
row spill across rows distinguished by the ``chunk`` column.  All access
goes through SQL text against the MiniSQL engine, so every logical
operation pays statement parse/plan overhead plus the double hop through
index and heap — the structural reasons MySQL trails every other backend in
Figures 5.3–5.7.
"""

from __future__ import annotations

import numpy as np

from ..simcluster.disk import BlockDevice
from ..storage.minisql import MiniSQL
from ..util.longarray import LongArray
from .bdb_db import CHUNK_ENTRIES
from .interface import GraphDB

__all__ = ["MySQLGraphDB"]


class MySQLGraphDB(GraphDB):
    """Adjacency BLOB rows behind SQL statements (MySQL stand-in)."""

    name = "MySQL"

    def __init__(self, device_provider, shared_cache=None, **kwargs):
        """``device_provider(name) -> BlockDevice`` supplies the engine's files."""
        super().__init__(**kwargs)
        self.db = MiniSQL(
            device_provider, clock=self.clock, cpu=self.cpu, shared_cache=shared_cache
        )
        self.db.execute("CREATE TABLE edges (src BIGINT, chunk INT, adj BLOB)")
        self.db.execute("CREATE INDEX ON edges (src, chunk)")
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
            rows = self.db.execute(
                "SELECT chunk, adj FROM edges WHERE src = ? ORDER BY chunk DESC LIMIT 1",
                (vertex,),
            )
            if rows:
                chunk_no, blob = rows[0]
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
                    rows = self.db.execute(
                        "SELECT adj FROM edges WHERE src = ? AND chunk = ?", (vertex, chunk_no)
                    )
                    merged = np.concatenate([self._unpack(rows[0][0]), new[pos : pos + take]])
                    self.db.execute(
                        "UPDATE edges SET adj = ? WHERE src = ? AND chunk = ?",
                        (self._pack(merged), vertex, chunk_no),
                    )
                    used += take
                    pos += take
                else:
                    chunk_no += 1
                    used = 0
                    take = min(CHUNK_ENTRIES, len(new) - pos)
                    self.db.execute(
                        "INSERT INTO edges VALUES (?, ?, ?)",
                        (vertex, chunk_no, self._pack(new[pos : pos + take])),
                    )
                    used = take
                    pos += take
            self._tails[vertex] = (chunk_no, used)

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        rows = self.db.execute(
            "SELECT adj FROM edges WHERE src = ? ORDER BY chunk", (vertex,)
        )
        if not rows:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self._unpack(blob) for (blob,) in rows])

    def _expand_fringe(self, vertices, adjlist: LongArray) -> None:
        """Batch fringe SELECTs in ascending ``src`` order.

        Each statement still pays its parse/plan round trip (the structural
        MySQL overhead the figures measure), but issuing the fringe's
        lookups in sorted key order walks the ``(src, chunk)`` index
        monotonically — B-tree page and heap access coalesce instead of
        bouncing across the file — and duplicate fringe entries reuse the
        first result.  Emission order matches the per-vertex path exactly.
        """
        fringe = np.asarray(vertices, dtype=np.int64)
        if not self.batch_io or len(fringe) == 0:
            super()._expand_fringe(fringe, adjlist)
            return
        fetched = {int(v): self._get_adjacency(int(v)) for v in np.unique(fringe)}
        for v in fringe:
            neighbors = fetched[int(v)]
            self.stats.adjacency_requests += 1
            self.stats.edges_scanned += len(neighbors)
            self.clock.advance(len(neighbors) * self.cpu.edge_visit_seconds)
            adjlist.extend(neighbors)

    def _walk_adjacency(self, vertices=None):
        """One range SELECT answers the whole bottom-up scan.

        ``WHERE src >= lo AND src <= hi ORDER BY src, chunk`` is planned by
        MiniSQL as a sequential heap scan plus an in-memory sort — a single
        statement round trip instead of one per vertex, which is exactly
        the trade the bottom-up level wants from this backend.  Row parse
        CPU is charged by the engine; per-edge claim checks are the
        caller's (early-exit accounting).
        """
        wset = None
        if vertices is not None:
            wanted = np.unique(np.asarray(vertices, dtype=np.int64))
            if len(wanted) == 0:
                return
            wset = set(int(v) for v in wanted)
            rows = self.db.execute(
                "SELECT src, adj FROM edges WHERE src >= ? AND src <= ? "
                "ORDER BY src, chunk",
                (int(wanted[0]), int(wanted[-1])),
            )
        else:
            rows = self.db.execute("SELECT src, adj FROM edges ORDER BY src, chunk")
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
        rows = self.db.execute("SELECT src FROM edges")
        return np.unique(np.array([r[0] for r in rows], dtype=np.int64)) if rows else np.empty(0, dtype=np.int64)

    def flush(self) -> None:
        self.db.flush()
