"""Array GraphDB: in-memory compressed adjacency list (§4.1.1).

The paper's fastest backend and the lower bound for search times.  During
ingestion edges accumulate in a hash map (exactly as the prototype did:
"we have actually used the HashMap implementation ... as temporary
storage"); :meth:`finalize_ingest` then packs them into the ``(xadj, adj)``
arrays of Figure 4.1, with ``xadj`` indexed directly by *global* vertex id
— the paper notes each node stores the full ``xadj`` array, which is why
Array's memory does not scale with back-end count but its accesses need no
hash lookup (the Figure 5.1 gap vs HashMap).
"""

from __future__ import annotations

import numpy as np

from ..util.errors import GraphStorageException
from ..util.longarray import LongArray
from .interface import AdjacencyBatch, GraphDB, gather_segments

__all__ = ["ArrayGraphDB"]

#: Guard against accidentally materializing a multi-GB xadj in a test run.
_MAX_DENSE_VERTEX = 200_000_000


class ArrayGraphDB(GraphDB):
    """In-memory compressed adjacency list (CSR) — the search lower bound."""

    name = "Array"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._staging: dict[int, LongArray] = {}
        self._xadj: np.ndarray | None = None
        self._adj: np.ndarray | None = None

    def _store_edges(self, edges: np.ndarray) -> None:
        if self._xadj is not None:
            raise GraphStorageException(
                "Array GraphDB is finalized; it does not support dynamic growth"
            )
        staging = self._staging
        # Hash-map staging cost: one lookup per stored edge.
        self.clock.advance(len(edges) * self.cpu.hash_lookup_seconds)
        for src, dst in edges:
            lst = staging.get(src)
            if lst is None:
                lst = staging[src] = LongArray()
            lst.append(dst)

    def finalize_ingest(self) -> None:
        """Flush the staging hash map into compressed adjacency arrays."""
        if self._xadj is not None:
            return
        max_gid = max(self._staging, default=-1)
        if max_gid >= _MAX_DENSE_VERTEX:
            raise GraphStorageException(
                f"vertex id {max_gid} too large for the dense global xadj array "
                "(the paper notes this Java-array limitation of the Array backend)"
            )
        degrees = np.zeros(max_gid + 1, dtype=np.int64)
        for g, lst in self._staging.items():
            degrees[g] = len(lst)
        xadj = np.zeros(max_gid + 2, dtype=np.int64)
        np.cumsum(degrees, out=xadj[1:])
        adj = np.empty(int(xadj[-1]), dtype=np.int64)
        for g, lst in self._staging.items():
            adj[xadj[g] : xadj[g + 1]] = lst.view()
        self._xadj, self._adj = xadj, adj
        # Packing touches every stored edge once.
        self.clock.advance(len(adj) * self.cpu.edge_visit_seconds)
        self._staging = {}

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        if self._xadj is None:
            # Pre-finalize reads fall back to the staging map.
            lst = self._staging.get(vertex)
            return lst.view().copy() if lst is not None else np.empty(0, dtype=np.int64)
        if vertex + 1 >= len(self._xadj):
            return np.empty(0, dtype=np.int64)
        return self._adj[self._xadj[vertex] : self._xadj[vertex + 1]]

    def _scan_adjacency(self, vertices=None, done=None):
        """One CSR gather over ``(xadj, adj)`` answers the whole scan."""
        if self._xadj is None:
            # Pre-finalize: the staging map, walked and packed.
            yield from super()._scan_adjacency(vertices)
            return
        if vertices is None:
            vs = self._base_local_vertices()
        else:
            vs = np.unique(np.asarray(vertices, dtype=np.int64))
            vs = vs[vs + 1 < len(self._xadj)]
        starts = self._xadj[vs]
        lens = self._xadj[vs + 1] - starts
        if lens.any():
            neighbors, offsets = gather_segments(self._adj, starts, lens)
            yield AdjacencyBatch.nonempty(vs, offsets, neighbors)

    def _local_vertices(self) -> np.ndarray:
        if self._xadj is None:
            return np.array(sorted(self._staging), dtype=np.int64)
        return np.flatnonzero(np.diff(self._xadj)).astype(np.int64)

    @property
    def num_local_vertices(self) -> int:
        return len(self.local_vertices())
