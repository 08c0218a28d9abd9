"""Array GraphDB: in-memory compressed adjacency list (§4.1.1).

The paper's fastest backend and the lower bound for search times.  Ingest
is charged as the prototype's hash-map staging, but staged as edge chunks
(:class:`StagedEdges`); :meth:`finalize_ingest` packs them into the
``(xadj, adj)`` arrays of Figure 4.1, with ``xadj`` indexed directly by
*global* vertex id — the paper notes each node stores the full ``xadj``
array, which is why Array's memory does not scale with back-end count but
its accesses need no hash lookup (the Figure 5.1 gap vs HashMap).
"""

from __future__ import annotations

import numpy as np

from ..util.errors import GraphStorageException
from .interface import AdjacencyBatch, GraphDB, StagedEdges, gather_segments

__all__ = ["ArrayGraphDB"]

#: Guard against accidentally materializing a multi-GB xadj in a test run.
_MAX_DENSE_VERTEX = 200_000_000


class ArrayGraphDB(GraphDB):
    """In-memory compressed adjacency list (CSR) — the search lower bound."""

    name = "Array"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._staged: StagedEdges | None = StagedEdges()
        self._xadj: np.ndarray | None = None
        self._adj: np.ndarray | None = None

    def _store_edges(self, edges: np.ndarray) -> None:
        if self._xadj is not None:
            raise GraphStorageException(
                "Array GraphDB is finalized; it does not support dynamic growth"
            )
        # Hash-map staging cost: one lookup per stored edge.
        self.clock.advance(len(edges) * self.cpu.hash_lookup_seconds)
        self._staged.add(edges)

    def finalize_ingest(self) -> None:
        """Pack the staged chunks into compressed adjacency arrays."""
        if self._xadj is not None:
            return
        batch = self._staged.batch()  # sparse: the guard precedes any dense array
        max_gid = int(batch.vertices[-1]) if len(batch) else -1
        if max_gid >= _MAX_DENSE_VERTEX:
            raise GraphStorageException(
                f"vertex id {max_gid} too large for the dense global xadj array "
                "(the paper notes this Java-array limitation of the Array backend)"
            )
        xadj = np.zeros(max_gid + 2, dtype=np.int64)
        xadj[batch.vertices + 1] = batch.degrees
        np.cumsum(xadj, out=xadj)
        self._xadj, self._adj = xadj, batch.neighbors
        # Packing touches every stored edge once.
        self.clock.advance(len(self._adj) * self.cpu.edge_visit_seconds)
        self._staged = None

    def _id_bound(self) -> int:
        """Finalized, the ids ``xadj`` indexes; staged, the default."""
        return super()._id_bound() if self._xadj is None else len(self._xadj) - 1

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        if self._xadj is None:
            return self._staged.adjacency(vertex)
        return self._adj[self._xadj[vertex] : self._xadj[vertex + 1]]

    def _scan_adjacency(self, vertices=None, done=None):
        """One CSR gather over ``(xadj, adj)`` (or the packed chunks)."""
        if vertices is None:
            vs = self._local_vertices()
        else:
            vs = np.unique(np.asarray(vertices, dtype=np.int64))
        if self._xadj is None:
            batch = self._staged.batch().select(vs)
            if len(batch):
                yield batch
            return
        starts = self._xadj[vs]
        lens = self._xadj[vs + 1] - starts
        if lens.any():
            neighbors, offsets = gather_segments(self._adj, starts, lens)
            yield AdjacencyBatch.nonempty(vs, offsets, neighbors)
