"""BerkeleyDB GraphDB: adjacency chunks in a B-tree KV store (§4.1.4).

The Figure 4.3 chunk layout (:mod:`.chunked`) over the from-scratch B-tree
:class:`KVStore` standing in for BerkeleyDB 1.7.1: a chunk is the value of
key ``(vertex id, chunk number)``, big-endian so key order is vertex order.
The store's page cache is the "internal (block) cache" toggled in Figure 5.2.
"""

from __future__ import annotations

import numpy as np

from ..simcluster.disk import BlockDevice
from ..storage.kvstore import KVStore, encode_key_u64_u32, encode_u64
from .chunked import ChunkedGraphDB

__all__ = ["BerkeleyGraphDB"]


class BerkeleyGraphDB(ChunkedGraphDB):
    """Adjacency chunks in a B-tree key-value store (BerkeleyDB stand-in)."""

    name = "BerkeleyDB"

    def __init__(
        self,
        device: BlockDevice,
        cache_pages: int = 512,
        page_size: int = 4096,
        shared_cache=None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.store = KVStore(
            device,
            page_size=page_size,
            cache_pages=cache_pages,
            page_cpu_seconds=self.cpu.btree_page_seconds,
            shared_cache=shared_cache,
            cache_owner="bdb",
        )
        self.restored = len(self.store) > 0  # the meta page's key count

    # -- engine primitives: ids arrive in space (``GraphDB``'s boundary) ------

    def _vertex_rows(self, vertex: int) -> list[bytes]:
        return [value for _, value in self.store.prefix(encode_u64(vertex))]

    def _tail_row(self, vertex: int) -> tuple[int, bytes] | None:
        row = None
        for key, value in self.store.prefix(encode_u64(vertex)):
            row = (int.from_bytes(key[8:12], "big"), value)
        return row

    def _read_row(self, vertex: int, chunk_no: int) -> bytes:
        return self.store.get(encode_key_u64_u32(vertex, chunk_no))

    def _update_row(self, vertex: int, chunk_no: int, data: bytes) -> None:
        self.store.put(encode_key_u64_u32(vertex, chunk_no), data)

    _insert_row = _update_row

    def _ordered_rows(self, lo: int | None = None, hi: int | None = None):
        if lo is None:
            rows = self.store.cursor()
        else:
            rows = self.store.cursor(encode_key_u64_u32(lo, 0), encode_u64(hi + 1))
        for key, value in rows:
            yield int.from_bytes(key[:8], "big"), value

    #: Below this many distinct fringe vertices, batched expansion does
    #: sorted point lookups; at or above it, one range scan over the B-tree
    #: leaf chain amortizes the root-to-leaf descents across the fringe.
    BATCH_SCAN_MIN = 32

    def _fetch(self, wanted: np.ndarray) -> dict[int, np.ndarray]:
        """Dense fringes upgrade to one leaf-chain range cursor between the
        smallest and largest wanted key — the bottom-up walk's plan."""
        if len(wanted) >= self.BATCH_SCAN_MIN:
            return dict(self._walk_adjacency(wanted))
        return super()._fetch(wanted)

    def _local_vertices(self) -> np.ndarray:
        seen = []
        last = None
        for vertex, _ in self._ordered_rows():
            if vertex != last:
                seen.append(vertex)
                last = vertex
        return np.array(seen, dtype=np.int64)

    def flush(self) -> None:
        self.store.flush()

    @property
    def cache_stats(self):
        return self.store.cache_stats
