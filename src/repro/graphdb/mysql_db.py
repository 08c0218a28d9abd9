"""MySQL GraphDB: adjacency BLOBs in a relational table (§4.1.3).

The schema of Figure 4.3: one table ``edges(src BIGINT, chunk INT, adj
BLOB)`` with a composite index on ``(src, chunk)``; each row's BLOB is one
chunk of the shared layout (:mod:`.chunked`).  All access goes through the
MiniSQL table's prepared statements, one plan per statement shape, so every
logical operation pays the per-statement round trip plus the double hop
through index and heap — the structural reasons MySQL trails every other
backend in Figures 5.3–5.5.  The bottom-up walk is one range ``SELECT``
(``WHERE src >= lo AND src <= hi ORDER BY src, chunk``): a sequential heap
scan plus an in-memory sort, one round trip instead of one per vertex.
"""

from __future__ import annotations

import numpy as np

from ..storage.minisql import EdgesTable
from .chunked import ChunkedGraphDB

__all__ = ["MySQLGraphDB"]


class MySQLGraphDB(ChunkedGraphDB):
    """Adjacency BLOB rows behind prepared statements (MySQL stand-in)."""

    name = "MySQL"

    def __init__(self, device_provider, shared_cache=None, **kwargs):
        """``device_provider(name) -> BlockDevice`` supplies the engine's files."""
        super().__init__(**kwargs)
        self.db = EdgesTable(device_provider, self.clock, self.cpu, shared_cache=shared_cache)
        self.restored = len(self.db.index) > 0  # the meta page's key count

    # -- engine primitives: one statement each -------------------------------

    def _vertex_rows(self, vertex: int) -> list[bytes]:
        return self.db.vertex_probe(vertex)

    def _tail_row(self, vertex: int) -> tuple[int, bytes] | None:
        return self.db.tail_probe(vertex)

    def _read_row(self, vertex: int, chunk_no: int) -> bytes:
        return self.db.point_probe(vertex, chunk_no)[0]

    def _update_row(self, vertex: int, chunk_no: int, data: bytes) -> None:
        self.db.update(vertex, chunk_no, data)

    def _insert_row(self, vertex: int, chunk_no: int, data: bytes) -> None:
        self.db.insert(vertex, chunk_no, data)

    def _ordered_rows(self, lo: int | None = None, hi: int | None = None):
        if lo is None:
            return self.db.ordered_scan()
        return self.db.range_scan(lo, hi)

    def _local_vertices(self) -> np.ndarray:
        return np.unique(np.array(self.db.source_scan(), dtype=np.int64))

    def flush(self) -> None:
        self.db.flush()
