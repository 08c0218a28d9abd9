"""HashMap GraphDB: in-memory per-vertex adjacency lists (§4.1.2).

Charged as the paper's hash map of per-vertex lists keyed by global id
(Figure 4.2), stored as edge chunks packed by one stable sort
(:class:`StagedEdges`).  Memory scales with the local partition (unlike
Array's full global ``xadj``), growth is natural, but every adjacency
access pays a hash lookup — the measured gap of Figure 5.1.
"""

from __future__ import annotations

import numpy as np

from .interface import GraphDB, StagedEdges

__all__ = ["HashMapGraphDB"]


class HashMapGraphDB(GraphDB):
    """In-memory per-vertex adjacency lists behind a hash map."""

    name = "HashMap"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._staged = StagedEdges()

    def _store_edges(self, edges: np.ndarray) -> None:
        self.clock.advance(len(edges) * self.cpu.hash_lookup_seconds)
        self._staged.add(edges)

    def finalize_ingest(self) -> None:
        self._staged.batch()

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        # The defining cost: a hash probe before the list is reachable,
        # plus boxed-container overhead per entry (the JVM prototype stored
        # java.lang.Long objects here, vs Array's primitive long[]).
        self.clock.advance(self.cpu.hash_lookup_seconds)
        lst = self._staged.adjacency(vertex)
        self.clock.advance(len(lst) * self.cpu.hashmap_edge_extra_seconds)
        return lst
