"""Per-vertex metadata stores (the get/setMetadata half of Listing 3.1).

BFS stores search levels here ("visited" state).  Chapter 5 runs most
experiments with an in-memory metadata/visited structure and one ablation
(Fig. 5.8) with an external-memory one; both live here, the in-memory one in
two media: a dict and a dense array.
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
    """Integer metadata per vertex id, defaulting to :data:`UNSET`."""

    @abc.abstractmethod
    def get(self, vertex: int) -> int: ...

    @abc.abstractmethod
    def set(self, vertex: int, value: int) -> None: ...

    def get_many(self, vertices) -> np.ndarray:
        """Vectorized gather; default loops over :meth:`get`."""
        vs = np.asarray(vertices, dtype=np.int64)
        return np.array([self.get(int(v)) for v in vs], dtype=np.int64)

    def set_many(self, vertices, value: int) -> None:
        """Vectorized scatter of one value; default loops over :meth:`set`."""
        for v in np.asarray(vertices, dtype=np.int64):
            self.set(int(v), value)

    def clear(self) -> None:
        """Reset every vertex to :data:`UNSET`."""
        raise NotImplementedError


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

    def __len__(self) -> int:
        return len(self._values)


class PinnedMetadata(MetadataStore):
    """Dense resident int32 metadata over ``[0, num_vertices)``.

    The same int32-per-vertex array as :class:`ExternalMetadata`, but
    materialized once as a resident numpy array instead of paged to a
    scratch device: the default in-memory level map over a dense id space.
    Lookups and scatters are fully vectorized.  Reads outside the range
    answer :data:`UNSET`; writes must stay inside it.
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


class ExternalMetadata(MetadataStore):
    """Out-of-core metadata: an int32 array paged to a block device.

    Used for the Fig. 5.8 ablation where even the visited structure no
    longer fits in memory.  A small LRU page cache keeps hot pages local;
    everything else pays device seeks, which is the measured effect.
    """

    VALUES_PER_PAGE = 1024

    def __init__(self, device: BlockDevice, cache_pages: int = 64, shared_cache=None):
        self.page_bytes = self.VALUES_PER_PAGE * 4
        self.pages = PagedFile(device, self.page_bytes)
        self.cache = make_block_cache(
            cache_pages, writer=self._write_page, shared=shared_cache, owner="ext-metadata"
        )
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

    def get_many(self, vertices) -> np.ndarray:
        vs = np.asarray(vertices, dtype=np.int64)
        out = np.empty(len(vs), dtype=np.int64)
        # Group by page so each page is fetched once per call.
        pages = vs // self.VALUES_PER_PAGE
        order = np.argsort(pages, kind="stable")
        current_page, data = -1, b""
        for idx in order:
            page_no = int(pages[idx])
            if page_no != current_page:
                data = self._read_page(page_no)
                current_page = page_no
            slot = int(vs[idx] % self.VALUES_PER_PAGE)
            out[idx] = struct.unpack_from(">i", data, slot * 4)[0]
        return out

    def set_many(self, vertices, value: int) -> None:
        vs = np.asarray(vertices, dtype=np.int64)
        if len(vs) == 0:
            return
        # Group by page so each dirty page is read and re-put once per call,
        # regardless of how many of its slots the fringe touches.
        pages = vs // self.VALUES_PER_PAGE
        order = np.argsort(pages, kind="stable")
        current_page, buf = -1, None
        for idx in order:
            page_no = int(pages[idx])
            if page_no != current_page:
                if buf is not None:
                    self.cache.put(current_page, bytes(buf), dirty=True)
                buf = bytearray(self._read_page(page_no))
                current_page = page_no
            slot = int(vs[idx] % self.VALUES_PER_PAGE)
            struct.pack_into(">i", buf, slot * 4, int(value))
        self.cache.put(current_page, bytes(buf), dirty=True)

    def flush(self) -> None:
        self.cache.flush()
