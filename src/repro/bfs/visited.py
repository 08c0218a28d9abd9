"""Visited/level structures for BFS.

Chapter 5 fixes the visited data structure (in-memory) for most runs "to
characterize the operation of the actual graph storage", and ablates an
external-memory visited structure for the Syn-2B runs (Fig. 5.8).  Both
wrap the metadata stores with BFS-level semantics: ``UNSET`` plays the role
of ``level = infinity``.  Neither in-memory structure charges virtual time,
so which one holds the levels shows on the wall clock only.

None of these level maps checks an id's range: a search hands them ids
inside the id space only (the search driver returns before marking a source
outside it, and every other id it marks is a stored one).
"""

from __future__ import annotations

import numpy as np

from ..graphdb.metadata import (
    ExternalMetadata,
    InMemoryMetadata,
    MetadataStore,
    PinnedMetadata,
    UNSET,
)
from ..simcluster.disk import BlockDevice

__all__ = [
    "VisitedLevels",
    "InMemoryVisited",
    "ExternalVisited",
    "PinnedVisited",
    "TypedVisited",
    "INFINITY",
]

#: "level[v] = infinity" sentinel.
INFINITY = UNSET


class VisitedLevels:
    """BFS level map over a metadata store."""

    def __init__(self, store: MetadataStore):
        self.store = store
        # Monotonically shrinking cache for unvisited_local(): visited
        # vertices never become unvisited again within one BFS, so each
        # bottom-up level only needs to re-filter the previous remainder.
        self._unvisited_cache: np.ndarray | None = None

    def level(self, vertex: int) -> int:
        return self.store.get(vertex)

    def is_visited(self, vertex: int) -> bool:
        return self.store.get(vertex) != INFINITY

    def mark(self, vertex: int, level: int) -> None:
        self.store.set(vertex, level)

    def mark_many(self, vertices, level: int) -> None:
        self.store.set_many(np.asarray(vertices, dtype=np.int64), int(level))

    def unvisited(self, vertices) -> np.ndarray:
        """Subset of ``vertices`` with level still at infinity."""
        vs = np.asarray(vertices, dtype=np.int64)
        if len(vs) == 0:
            return vs
        levels = self.store.get_many(vs)
        return vs[levels == INFINITY]

    def unvisited_local(self, local_vertices) -> np.ndarray:
        """Unvisited subset of this rank's vertices, for bottom-up scans.

        ``local_vertices`` is a callable returning the full local vertex
        array; it is invoked once, on the first bottom-up level of a query.
        Because visited levels only ever move from infinity to a value, the
        result shrinks monotonically — each call re-filters the previous
        remainder instead of materializing levels for the whole local id
        space again.
        """
        if self._unvisited_cache is None:
            base = np.asarray(local_vertices(), dtype=np.int64)
        else:
            base = self._unvisited_cache
        self._unvisited_cache = self.unvisited(base)
        return self._unvisited_cache


class InMemoryVisited(VisitedLevels):
    """Hash-map visited levels — the fallback where no dense array fits.

    Used where the service knows no id space (nothing stored), or where that
    space holds more ids than the deployment stored endpoints (sparse ids):
    the dict grows with the touched vertices only.  It is also the reference
    the dense structure is held to.
    """

    def __init__(self):
        super().__init__(InMemoryMetadata())


class ExternalVisited(VisitedLevels):
    """Visited levels paged to disk — the Fig. 5.8 configuration.

    The default cache holds only a few pages (32 KB), so level lookups of a
    scale-free fringe — which scatters across the whole id range — pay
    steady paging costs, the measured effect of the ablation.
    """

    def __init__(self, device: BlockDevice, cache_pages: int = 8):
        super().__init__(ExternalMetadata(device, cache_pages=cache_pages))

    def flush(self) -> None:
        self.store.flush()


class PinnedVisited(VisitedLevels):
    """Visited levels in a resident dense int32 array over the id space.

    The default in-memory structure where the id space is known and dense
    (see :class:`InMemoryVisited` for where it is not): one gather / scatter
    per fringe instead of a dict probe per vertex, and no virtual time
    either way.  Levels are identical to the other structures' — only the
    medium differs.
    """

    def __init__(self, num_vertices: int):
        super().__init__(PinnedMetadata(num_vertices))

    @property
    def resident_bytes(self) -> int:
        return self.store.resident_bytes

    def flush(self) -> None:
        """Nothing to page out — kept for ExternalVisited API parity."""


class TypedVisited(VisitedLevels):
    """Another structure's levels seen through a vertex-type lens.

    ``unvisited`` is the one question both a push level and a pull level ask
    before a vertex may enter a fringe, so also dropping the vertices whose
    entry in the replicated type table (``GraphDB.metadata``) is not an
    allowed code turns Algorithms 1 and 2 into the ontology-constrained
    search of the paper's reference [32] with no change to the driver.  The
    table is resident, so the check charges nothing; marks go straight to
    the wrapped structure's store.
    """

    def __init__(self, inner: VisitedLevels, types: MetadataStore, allowed_codes):
        super().__init__(inner.store)
        self.types = types
        self.allowed = np.asarray(allowed_codes, dtype=np.int64)

    def admits(self, vertex: int) -> bool:
        return bool(np.isin(self.types.get(vertex), self.allowed))

    def unvisited(self, vertices) -> np.ndarray:
        vs = super().unvisited(vertices)
        return vs[np.isin(self.types.get_many(vs), self.allowed)]
