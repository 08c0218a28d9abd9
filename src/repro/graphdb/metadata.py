"""Per-vertex metadata stores (the get/setMetadata half of Listing 3.1).

BFS keeps its search levels here: a level is a vertex's metadata, and
:data:`UNSET` plays the role of ``level = infinity``.  Chapter 5 runs most
experiments with an in-memory visited structure and one ablation (Fig. 5.8)
with an external-memory one; both are stores here, the in-memory one in two
media: a dict and a dense array.  Neither in-memory store charges virtual
time, so which one holds the levels shows on the wall clock only.

No store checks an id's range on a write: a search hands them ids inside the
id space only (the search driver returns before marking a source outside it,
and every other id it marks is a stored one).
"""

from __future__ import annotations

import abc
import struct
from itertools import repeat

import numpy as np

from ..simcluster.disk import BlockDevice
from ..storage.blockcache import make_block_cache
from ..storage.pagedfile import PagedFile

__all__ = [
    "MetadataStore",
    "InMemoryMetadata",
    "ExternalMetadata",
    "PinnedMetadata",
    "UNSET",
]

#: Default metadata value for vertices never written (plays the role of
#: "level = infinity" in the BFS pseudocode; fits int32 storage).
UNSET = 2**31 - 1


class MetadataStore(abc.ABC):
    """Integer metadata per vertex id, defaulting to :data:`UNSET`.

    A search's level map is a fresh store: ``set`` / ``set_many`` mark
    levels, ``get_many`` reads them, and :meth:`unvisited` /
    :meth:`unvisited_local` ask which vertices are still at infinity.
    """

    #: The shrinking remainder :meth:`unvisited_local` re-filters.
    _unvisited_cache: np.ndarray | None = None

    @abc.abstractmethod
    def get(self, vertex: int) -> int: ...

    @abc.abstractmethod
    def set(self, vertex: int, value: int) -> None: ...

    @abc.abstractmethod
    def get_many(self, vertices) -> np.ndarray:
        """Vectorized gather, one int64 per vertex."""

    @abc.abstractmethod
    def set_many(self, vertices, value: int) -> None:
        """Vectorized scatter of one value."""

    def unvisited(self, vertices) -> np.ndarray:
        """Subset of ``vertices`` still at :data:`UNSET` (level infinity)."""
        vs = np.asarray(vertices, dtype=np.int64)
        if len(vs) == 0:
            return vs
        return vs[self.get_many(vs) == UNSET]

    def unvisited_local(self, local_vertices) -> np.ndarray:
        """Unvisited subset of this rank's vertices, for bottom-up scans.

        ``local_vertices`` is a callable returning the full local vertex
        array; it is invoked once, on the first bottom-up level of a search.
        Levels only ever move from infinity to a value, so the result shrinks
        monotonically: each call re-filters the previous remainder instead of
        reading levels for the whole local id space again.
        """
        if self._unvisited_cache is None:
            base = np.asarray(local_vertices(), dtype=np.int64)
        else:
            base = self._unvisited_cache
        self._unvisited_cache = self.unvisited(base)
        return self._unvisited_cache


class InMemoryMetadata(MetadataStore):
    """Hash-map metadata store (sparse, grows with touched vertices)."""

    def __init__(self):
        self._values: dict[int, int] = {}

    def get(self, vertex: int) -> int:
        return self._values.get(int(vertex), UNSET)

    def set(self, vertex: int, value: int) -> None:
        self._values[int(vertex)] = int(value)

    def get_many(self, vertices) -> np.ndarray:
        vs = np.asarray(vertices, dtype=np.int64).ravel()
        return np.fromiter(
            map(self._values.get, vs.tolist(), repeat(UNSET)), dtype=np.int64, count=len(vs)
        )

    def set_many(self, vertices, value: int) -> None:
        vs = np.asarray(vertices, dtype=np.int64).ravel()
        value = int(value)
        self._values.update(zip(vs.tolist(), (value,) * len(vs)))

    def clear(self) -> None:
        self._values.clear()
        self._unvisited_cache = None

    def __len__(self) -> int:
        return len(self._values)


class PinnedMetadata(MetadataStore):
    """Dense resident int32 metadata over ``[0, num_vertices)``.

    The same int32-per-vertex array as :class:`ExternalMetadata`, but
    materialized once as a resident numpy array instead of paged to a
    scratch device: the default in-memory level map where the id space is
    known and dense (:class:`InMemoryMetadata` everywhere else) — one gather
    / scatter per fringe instead of a dict probe per vertex.  Reads outside
    the range answer :data:`UNSET`; writes must stay inside it.
    """

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise ValueError("num_vertices cannot be negative")
        self.num_vertices = int(num_vertices)
        self._values = np.full(self.num_vertices, UNSET, dtype=np.int32)

    @property
    def resident_bytes(self) -> int:
        return int(self._values.nbytes)

    def get(self, vertex: int) -> int:
        v = int(vertex)
        if not 0 <= v < self.num_vertices:
            return UNSET
        return int(self._values[v])

    def set(self, vertex: int, value: int) -> None:
        self._values[int(vertex)] = int(value)

    def get_many(self, vertices) -> np.ndarray:
        vs = np.asarray(vertices, dtype=np.int64).ravel()
        inside = vs.view(np.uint64) < self.num_vertices  # negatives wrap high
        if inside.all():
            return self._values[vs].astype(np.int64)
        out = np.full(len(vs), UNSET, dtype=np.int64)
        out[inside] = self._values[vs[inside]]
        return out

    def set_many(self, vertices, value: int) -> None:
        vs = np.asarray(vertices, dtype=np.int64).ravel()
        self._values[vs] = int(value)

    def clear(self) -> None:
        self._values.fill(UNSET)
        self._unvisited_cache = None


class ExternalMetadata(MetadataStore):
    """Out-of-core metadata: an int32 array paged to a block device.

    Used for the Fig. 5.8 ablation where even the visited structure no
    longer fits in memory.  The default LRU page cache holds only a few
    pages (32 KB), so level lookups of a scale-free fringe — which scatters
    across the whole id range — pay steady device seeks, the measured effect.
    """

    VALUES_PER_PAGE = 1024

    def __init__(self, device: BlockDevice, cache_pages: int = 8):
        self.page_bytes = self.VALUES_PER_PAGE * 4
        self.pages = PagedFile(device, self.page_bytes)
        self.cache = make_block_cache(cache_pages, writer=self._write_page, owner="ext-metadata")
        self._unset_page = struct.pack(">i", UNSET) * self.VALUES_PER_PAGE

    def _write_page(self, page_no: int, data: bytes) -> None:
        while self.pages.npages <= page_no:
            self.pages.write_page(self.pages.npages, self._unset_page)
        self.pages.write_page(page_no, data)

    def _read_page(self, page_no: int) -> bytes:
        data = self.cache.get(page_no)
        if data is None:
            if page_no >= self.pages.npages:
                # Materialize the page (and any gap) on disk, as writing a
                # real file-backed array would; first touch pays the I/O.
                self._write_page(page_no, self._unset_page)
            data = self.pages.read_page(page_no)
            self.cache.put(page_no, data)
        return data

    def get(self, vertex: int) -> int:
        page_no, slot = divmod(int(vertex), self.VALUES_PER_PAGE)
        data = self._read_page(page_no)
        return struct.unpack_from(">i", data, slot * 4)[0]

    def set(self, vertex: int, value: int) -> None:
        page_no, slot = divmod(int(vertex), self.VALUES_PER_PAGE)
        buf = bytearray(self._read_page(page_no))
        struct.pack_into(">i", buf, slot * 4, int(value))
        self.cache.put(page_no, bytes(buf), dirty=True)

    def _by_page(self, vertices):
        """The distinct pages of ``vertices``, ascending: per page its
        number, the positions of its ids in ``vertices`` and their slots."""
        pages, slots = np.divmod(np.asarray(vertices, dtype=np.int64), self.VALUES_PER_PAGE)
        order = np.argsort(pages, kind="stable")
        for at in np.split(order, np.flatnonzero(np.diff(pages[order])) + 1):
            if len(at):
                yield int(pages[at[0]]), at, slots[at]

    def get_many(self, vertices) -> np.ndarray:
        out = np.empty(len(vertices), dtype=np.int64)
        # One page read and one gather per distinct page.
        for page_no, at, slots in self._by_page(vertices):
            out[at] = np.frombuffer(self._read_page(page_no), dtype=">i4")[slots]
        return out

    def set_many(self, vertices, value: int) -> None:
        # One page read, one scatter and one dirty put per distinct page.
        for page_no, _, slots in self._by_page(vertices):
            page = np.frombuffer(self._read_page(page_no), dtype=">i4").copy()
            page[slots] = int(value)
            self.cache.put(page_no, page.tobytes(), dirty=True)

    def flush(self) -> None:
        self.cache.flush()
