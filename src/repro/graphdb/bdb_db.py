"""BerkeleyDB GraphDB: adjacency chunks in a B-tree KV store (§4.1.4).

Adjacency lists are serialized into fixed-capacity binary chunks (8 KB, the
paper's Figure 4.3 blocking) keyed by ``(vertex id, chunk number)``; the
underlying store is the from-scratch B-tree :class:`KVStore` standing in
for BerkeleyDB 1.7.1.  The store's page cache is the "internal (block)
cache" toggled in Figure 5.2.
"""

from __future__ import annotations

import numpy as np

from ..simcluster.disk import BlockDevice
from ..storage.kvstore import KVStore, encode_key_u64_u32, encode_u64
from .interface import GraphDB

__all__ = ["BerkeleyGraphDB", "CHUNK_BYTES", "CHUNK_ENTRIES"]

#: 8 KB chunks, "as suggested by the MySQL documentation" and reused for BDB.
CHUNK_BYTES = 8192
CHUNK_ENTRIES = CHUNK_BYTES // 8


class BerkeleyGraphDB(GraphDB):
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
        # Lazily discovered tail position per vertex: (chunk_no, entries_used).
        self._tails: dict[int, tuple[int, int]] = {}

    # -- chunk helpers ----------------------------------------------------

    @staticmethod
    def _pack(neighbors: np.ndarray) -> bytes:
        return np.ascontiguousarray(neighbors.astype("<u8")).tobytes()

    @staticmethod
    def _unpack(data: bytes) -> np.ndarray:
        return np.frombuffer(data, dtype="<u8").astype(np.int64)

    def _tail_of(self, vertex: int) -> tuple[int, int]:
        """Last chunk number and its fill for ``vertex`` (queried once)."""
        tail = self._tails.get(vertex)
        if tail is None:
            tail = (-1, CHUNK_ENTRIES)  # no chunks yet; "full" forces a new one
            for key, value in self.store.prefix(encode_u64(vertex)):
                chunk_no = int.from_bytes(key[8:12], "big")
                tail = (chunk_no, len(value) // 8)
            self._tails[vertex] = tail
        return tail

    # -- GraphDB hooks ------------------------------------------------------

    def _store_edges(self, edges: np.ndarray) -> None:
        if len(edges) == 0:
            return
        # Group arrivals by source so each vertex's tail is touched once.
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
                if used >= CHUNK_ENTRIES:
                    chunk_no += 1
                    used = 0
                    existing = np.empty(0, dtype=np.int64)
                else:
                    existing = self._unpack(self.store.get(encode_key_u64_u32(vertex, chunk_no)))
                take = min(CHUNK_ENTRIES - used, len(new) - pos)
                merged = np.concatenate([existing, new[pos : pos + take]])
                self.store.put(encode_key_u64_u32(vertex, chunk_no), self._pack(merged))
                used += take
                pos += take
            self._tails[vertex] = (chunk_no, used)

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        if vertex < 0:  # never a key (store_edges rejects them); `degree` may ask
            return np.empty(0, dtype=np.int64)
        chunks = [self._unpack(v) for _, v in self.store.prefix(encode_u64(vertex))]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    #: Below this many distinct fringe vertices, batched expansion does
    #: sorted point lookups; at or above it, one range scan over the B-tree
    #: leaf chain amortizes the root-to-leaf descents across the fringe.
    BATCH_SCAN_MIN = 32

    def _expand_fringe(self, vertices: np.ndarray) -> np.ndarray:
        """Batch adjacency lookups in sorted key order through the B-tree.

        The fringe's ``(vertex, chunk)`` keys are visited in ascending
        order, so consecutive lookups land on the same or neighboring
        leaves (page-cache locality) instead of re-descending into random
        subtrees; dense fringes upgrade to a single leaf-chain range scan
        between the smallest and largest wanted key.  Results are emitted
        per vertex in original fringe order with chunks ascending —
        byte-identical to the per-vertex path.
        """
        if not self.batch_io or len(vertices) == 0:
            return super()._expand_fringe(vertices)
        wanted = np.unique(vertices[vertices >= 0])  # a negative id is never a key
        found: dict[int, list[np.ndarray]] = {}
        if len(wanted) >= self.BATCH_SCAN_MIN:
            lo = encode_key_u64_u32(int(wanted[0]), 0)
            hi = encode_u64(int(wanted[-1]) + 1)
            wset = set(int(v) for v in wanted)
            for key, value in self.store.cursor(lo, hi):
                vertex = int.from_bytes(key[:8], "big")
                if vertex in wset:
                    found.setdefault(vertex, []).append(self._unpack(value))
        else:
            for v in wanted:
                chunks = [self._unpack(val) for _, val in self.store.prefix(encode_u64(int(v)))]
                if chunks:
                    found[int(v)] = chunks
        joined = {v: np.concatenate(chunks) for v, chunks in found.items()}
        empty = np.empty(0, dtype=np.int64)
        lists = [joined.get(v, empty) for v in vertices.tolist()]
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        self._account_fringe(lens)
        return np.concatenate(lists)

    def _walk_adjacency(self, vertices=None):
        """Walk the B-tree leaf chain once, yielding wanted vertices.

        One range cursor between the smallest and largest wanted key visits
        every leaf page in key order — the sequential plan of the bottom-up
        BFS level.  Page I/O and B-tree CPU are charged by the cursor; the
        per-edge claim check is the caller's (early-exit accounting).
        """
        wset = None
        if vertices is not None:
            wanted = np.unique(np.asarray(vertices, dtype=np.int64))
            if len(wanted) == 0:
                return
            wset = set(int(v) for v in wanted)
            it = self.store.cursor(
                encode_key_u64_u32(int(wanted[0]), 0), encode_u64(int(wanted[-1]) + 1)
            )
        else:
            it = self.store.cursor()
        cur = None
        chunks: list[np.ndarray] = []
        for key, value in it:
            vertex = int.from_bytes(key[:8], "big")
            if vertex != cur:
                if chunks:
                    yield cur, np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                cur, chunks = vertex, []
            if wset is None or vertex in wset:
                chunks.append(self._unpack(value))
        if chunks:
            yield cur, np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    def _local_vertices(self) -> np.ndarray:
        seen = []
        last = None
        for key, _ in self.store.cursor():
            vertex = int.from_bytes(key[:8], "big")
            if vertex != last:
                seen.append(vertex)
                last = vertex
        return np.array(seen, dtype=np.int64)

    def flush(self) -> None:
        self.store.flush()

    @property
    def cache_stats(self):
        return self.store.cache_stats
