"""Block/page caches with write-back: private LRU and rank-shared pools.

:class:`LRUBlockCache` is the "block cache component" of grDB (§3.4.1) and
doubles as the page cache of the BerkeleyDB-like store.  Keys are opaque
hashables (the engines use ``(file_id, block_no)``); values are ``bytes``
of one block.  Dirty blocks are flushed through a caller-supplied writer on
eviction and on :meth:`flush`, so a cache-enabled engine coalesces repeated
writes to a hot block into one device write — exactly the effect Figure 5.2
measures.

:class:`SharedBlockCache` hoists that per-engine cache into one pool per
rank: every storage engine on the rank takes a :class:`CachePartition` view
(an owner-namespaced facade with the full ``LRUBlockCache`` API), so all
in-flight queries and all engines of a back-end compete for — and benefit
from — the same resident set.  The pool is the ``"2q"`` cache policy:
scan-resistant two-segment eviction (segmented LRU), where first-touch
blocks enter a *probation* segment and only a re-reference promotes them to
the *protected* segment; eviction drains probation first.  A bottom-up
sweep streaming the whole graph can therefore never wipe out another
query's hot top-down working set — it churns through probation while
protected blocks survive.  The ``"lru"`` policy (the paper-faithful
configuration) builds no pool: every engine keeps a private
:class:`LRUBlockCache`.

Engines must obtain caches through :func:`make_block_cache` — the factory
is the one place private ``LRUBlockCache`` construction is allowed, which
is what lets a deployment swap every engine onto a shared pool without
touching engine code.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

from ..util.errors import ConfigError, StorageEngineError

__all__ = [
    "LRUBlockCache",
    "CacheStats",
    "SharedBlockCache",
    "CachePartition",
    "make_block_cache",
    "validate_cache_policy",
]

CACHE_POLICIES = ("lru", "2q")


def validate_cache_policy(policy: str) -> str:
    """Validate a ``cache_policy`` knob value; returns it unchanged.

    The single source of truth for the error: ``Features`` and the pool
    registry (``shared_cache_for``) both call this instead of re-validating
    in their own words.
    """
    if policy not in CACHE_POLICIES:
        raise ConfigError(
            f"unknown cache_policy {policy!r}; choose from {CACHE_POLICIES}"
        )
    return policy


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LRUBlockCache:
    """Bounded LRU cache of storage blocks with dirty tracking.

    Parameters
    ----------
    capacity_blocks:
        Maximum number of cached blocks; 0 makes the cache a pure
        pass-through (every ``get`` misses), which is how the "cache
        disabled" configurations of Figure 5.2 run.
    writer:
        ``writer(key, data)`` persists a dirty block; required if any
        ``put`` marks blocks dirty.
    """

    def __init__(
        self,
        capacity_blocks: int,
        writer: Callable[[Hashable, bytes], None] | None = None,
    ):
        if capacity_blocks < 0:
            raise StorageEngineError("cache capacity cannot be negative")
        self.capacity = capacity_blocks
        self._writer = writer
        self._blocks: OrderedDict[Hashable, bytes] = OrderedDict()
        self._pinned: dict[Hashable, bytes] = {}
        self._dirty: set[Hashable] = set()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._blocks) + len(self._pinned)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._blocks or key in self._pinned

    @property
    def pinned_blocks(self) -> int:
        return len(self._pinned)

    def _free_capacity(self) -> int:
        """Capacity left for evictable blocks after the pinned share."""
        return max(0, self.capacity - len(self._pinned))

    def get(self, key: Hashable) -> bytes | None:
        """Return the cached block and refresh its recency, or ``None``."""
        data = self._pinned.get(key)
        if data is not None:
            self.stats.hits += 1
            return data
        data = self._blocks.get(key)
        if data is None:
            self.stats.misses += 1
            return None
        self._blocks.move_to_end(key)
        self.stats.hits += 1
        return data

    def put(self, key: Hashable, data: bytes, dirty: bool = False) -> None:
        """Insert/overwrite a block; evicts LRU blocks beyond capacity."""
        if key in self._pinned:
            if dirty:
                raise StorageEngineError(f"pinned block {key!r} cannot be dirtied")
            self._pinned[key] = data
            return
        free = self._free_capacity()
        if free == 0:
            if dirty:
                self._write_back(key, data)
            return
        if key in self._blocks:
            self._blocks.move_to_end(key)
        self._blocks[key] = data
        if dirty:
            self._dirty.add(key)
        else:
            # A clean overwrite (fresh read from the device) supersedes any
            # stale dirty mark: writing the old bit pattern back out would
            # clobber the block just read.
            self._dirty.discard(key)
        while len(self._blocks) > free:
            old_key, old_data = self._blocks.popitem(last=False)
            self.stats.evictions += 1
            if old_key in self._dirty:
                self._dirty.discard(old_key)
                self._write_back(old_key, old_data)

    def pin(self, key: Hashable, data: bytes) -> None:
        """Make ``key`` resident and exempt from eviction.

        Pinned blocks are clean by definition (they mirror state the owner
        can rebuild, never the sole copy of a write).  Pinning beyond the
        cache's capacity is a configuration error, not an eviction.
        """
        if key not in self._pinned and len(self._pinned) + 1 > self.capacity:
            raise StorageEngineError(
                f"cannot pin {key!r}: {len(self._pinned)} blocks already "
                f"pinned of capacity {self.capacity}"
            )
        if key in self._blocks:
            del self._blocks[key]
            self._dirty.discard(key)
        self._pinned[key] = data
        # The pinned share shrank the evictable region; trim overflow.
        free = self._free_capacity()
        while len(self._blocks) > free:
            old_key, old_data = self._blocks.popitem(last=False)
            self.stats.evictions += 1
            if old_key in self._dirty:
                self._dirty.discard(old_key)
                self._write_back(old_key, old_data)

    def unpin(self, key: Hashable) -> None:
        """Demote a pinned block to an ordinary (evictable) resident."""
        data = self._pinned.pop(key, None)
        if data is not None:
            self.put(key, data)

    def invalidate(self, key: Hashable) -> None:
        """Drop a block without writing it back (caller persisted it)."""
        self._blocks.pop(key, None)
        self._pinned.pop(key, None)
        self._dirty.discard(key)

    def _write_back(self, key: Hashable, data: bytes) -> None:
        if self._writer is None:
            raise StorageEngineError(f"dirty block {key!r} evicted but no writer configured")
        self._writer(key, data)
        self.stats.writebacks += 1

    def dirty_items(self) -> list[tuple[Hashable, bytes]]:
        """Snapshot of every dirty block (in LRU order), without writing.

        Used by the journaled (crash-consistent) grDB flush, which must
        know the publish set before any in-place write happens.
        """
        return [(k, self._blocks[k]) for k in self._blocks if k in self._dirty]

    def flush(self) -> None:
        """Write back every dirty block (in LRU order) and mark all clean."""
        for key in [k for k in self._blocks if k in self._dirty]:
            self._dirty.discard(key)
            self._write_back(key, self._blocks[key])

    def clear(self) -> None:
        """Flush then drop everything."""
        self.flush()
        self._blocks.clear()
        self._pinned.clear()
        self._dirty.clear()

    def drop(self) -> None:
        """Drop everything WITHOUT flushing.

        For discarding cached state that no longer describes the backing
        store — e.g. after :meth:`GrDBStorage.restore` re-reads a superblock,
        when flushing pre-restore dirty blocks would corrupt the restored
        image.  Not an alternative to :meth:`clear` for shutdown.
        """
        self._blocks.clear()
        self._pinned.clear()
        self._dirty.clear()

    def detach(self) -> None:
        """The engine closed: forget its writer, which refers back to it."""
        self._writer = None

    def scan_budget(self) -> int:
        """Cache insertions one streaming pass may make without self-harm.

        A private LRU has no one else to protect, so everything outside the
        pinned share is the budget (inserting more would only evict the
        pass's own earlier blocks; pinned blocks are untouchable either
        way).  Shared partitions narrow this — see
        :meth:`CachePartition.scan_budget`.
        """
        return self._free_capacity()


class SharedBlockCache:
    """One bounded block pool per rank, shared by every engine on it.

    Entries are namespaced by ``(owner, key)``; each owner attaches through
    :meth:`partition`, which hands back a :class:`CachePartition` exposing
    the familiar per-engine cache API.  Hit/miss accounting is attributed
    to the accessing partition and evictions/write-backs to the partition
    owning the evicted block.

    The pool is split into probation + protected segments (scan resistance;
    see module docstring).  The protected segment holds at most 3/4 of
    capacity; a probation hit promotes, demoting the protected LRU back to
    probation rather than evicting it.
    """

    #: Fraction of capacity the protected segment may occupy.
    PROTECTED_FRACTION = 0.75

    def __init__(self, capacity_blocks: int):
        if capacity_blocks < 0:
            raise StorageEngineError("cache capacity cannot be negative")
        self.capacity = capacity_blocks
        self._protected_cap = (
            max(1, int(capacity_blocks * self.PROTECTED_FRACTION))
            if capacity_blocks
            else 0
        )
        # _probation is the first-touch segment, _protected the
        # re-referenced one.  _pinned holds blocks exempt from eviction;
        # its share is subtracted from what probation/protected may use.
        # Keys are (owner, key) pairs throughout.
        self._probation: OrderedDict[tuple, bytes] = OrderedDict()
        self._protected: OrderedDict[tuple, bytes] = OrderedDict()
        self._pinned: dict[tuple, bytes] = {}
        self._dirty: set[tuple] = set()
        self._writers: dict[str, Callable[[Hashable, bytes], None] | None] = {}
        self._partitions: dict[str, "CachePartition"] = {}
        #: Pool-wide counters (sum over partitions, plus cross-owner events).
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected) + len(self._pinned)

    @property
    def pinned_blocks(self) -> int:
        return len(self._pinned)

    def _free_capacity(self) -> int:
        """Capacity left for the evictable segments after the pinned share."""
        return max(0, self.capacity - len(self._pinned))

    def partition(self, owner: str, writer=None) -> "CachePartition":
        """Attach (or re-attach) owner ``owner``; returns its cache view.

        Re-attaching an owner name — a storage engine rebuilt on the same
        devices, e.g. by read-repair — DROPS the previous incarnation's
        entries without flushing: its dirty blocks describe the discarded
        image, and writing them back through the stale writer would corrupt
        the freshly rebuilt store.
        """
        if owner in self._partitions:
            self.drop_owner(owner)
        self._writers[owner] = writer
        part = CachePartition(self, owner)
        self._partitions[owner] = part
        return part

    def drop_owner(self, owner: str) -> None:
        """Discard every block of ``owner`` without write-back."""
        for seg in (self._probation, self._protected, self._pinned):
            for k in [k for k in seg if k[0] == owner]:
                del seg[k]
                self._dirty.discard(k)

    def scan_budget(self) -> int:
        """Insertions one streaming pass may make without collateral damage.

        The pinned segment is off-limits to everyone: the budget is computed
        over the *free* share (capacity minus pinned blocks), so a
        whole-graph analytics sweep never evicts a pinned block.  Within the
        free share a pass's first-touch blocks can only displace other
        probation blocks, so the budget is the probation segment's size —
        capping batch inserts there keeps a giant scan from monopolizing
        even probation.  A fully-pinned pool has budget 0: a scan may cache
        nothing.
        """
        free = self._free_capacity()
        return max(0, free - self._protected_cap) or min(1, free)

    # -- core operations (called through CachePartition) --------------------

    def _get(self, part: "CachePartition", key: Hashable) -> bytes | None:
        k = (part.owner, key)
        data = self._pinned.get(k)
        if data is not None:
            part.stats.hits += 1
            self.stats.hits += 1
            return data
        data = self._probation.get(k)
        if data is not None:
            # Re-reference: promote to protected, demoting its LRU.
            del self._probation[k]
            self._protected[k] = data
            while len(self._protected) > self._protected_cap:
                old_k, old_data = self._protected.popitem(last=False)
                self._probation[old_k] = old_data
            part.stats.hits += 1
            self.stats.hits += 1
            return data
        data = self._protected.get(k)
        if data is not None:
            self._protected.move_to_end(k)
            part.stats.hits += 1
            self.stats.hits += 1
            return data
        part.stats.misses += 1
        self.stats.misses += 1
        return None

    def _put(self, part: "CachePartition", key: Hashable, data: bytes, dirty: bool) -> None:
        k = (part.owner, key)
        if k in self._pinned:
            if dirty:
                raise StorageEngineError(
                    f"pinned block {key!r} of owner {part.owner!r} cannot be dirtied"
                )
            self._pinned[k] = data
            return
        free = self._free_capacity()
        if free == 0:
            if dirty:
                self._write_back(k, data)
            return
        if k in self._protected:
            self._protected.move_to_end(k)
            self._protected[k] = data
        else:
            if k in self._probation:
                self._probation.move_to_end(k)
            self._probation[k] = data
        if dirty:
            self._dirty.add(k)
        else:
            # A clean overwrite (fresh read from the device) supersedes any
            # stale dirty mark, exactly as in the private LRU.
            self._dirty.discard(k)
        self._evict_to(free)

    def _evict_to(self, free: int) -> None:
        """Shrink the evictable segments to ``free`` blocks (probation first)."""
        while len(self._probation) + len(self._protected) > free:
            if self._probation:
                old_k, old_data = self._probation.popitem(last=False)
            else:
                old_k, old_data = self._protected.popitem(last=False)
            evicted_part = self._partitions.get(old_k[0])
            if evicted_part is not None:
                evicted_part.stats.evictions += 1
            self.stats.evictions += 1
            if old_k in self._dirty:
                self._dirty.discard(old_k)
                self._write_back(old_k, old_data)

    def _pin(self, part: "CachePartition", key: Hashable, data: bytes) -> None:
        k = (part.owner, key)
        if k not in self._pinned and len(self._pinned) + 1 > self.capacity:
            raise StorageEngineError(
                f"cannot pin {key!r} for owner {part.owner!r}: "
                f"{len(self._pinned)} blocks already pinned of capacity "
                f"{self.capacity}"
            )
        for seg in (self._probation, self._protected):
            if k in seg:
                del seg[k]
                self._dirty.discard(k)
        self._pinned[k] = data
        # The pinned share shrank the evictable region; trim overflow.
        self._evict_to(self._free_capacity())

    def _unpin(self, part: "CachePartition", key: Hashable) -> None:
        k = (part.owner, key)
        data = self._pinned.pop(k, None)
        if data is not None:
            self._put(part, key, data, dirty=False)

    def _write_back(self, k: tuple, data: bytes) -> None:
        writer = self._writers.get(k[0])
        if writer is None:
            raise StorageEngineError(
                f"dirty block {k[1]!r} of owner {k[0]!r} evicted but no writer configured"
            )
        writer(k[1], data)
        part = self._partitions.get(k[0])
        if part is not None:
            part.stats.writebacks += 1
        self.stats.writebacks += 1

    def _contains(self, owner: str, key: Hashable) -> bool:
        k = (owner, key)
        return k in self._probation or k in self._protected or k in self._pinned

    def _owned_keys(self, owner: str) -> list[tuple]:
        """Owner's blocks in recency order (probation, protected, pinned)."""
        return [
            k
            for seg in (self._probation, self._protected, self._pinned)
            for k in seg
            if k[0] == owner
        ]

    def _data_of(self, k: tuple) -> bytes:
        for seg in (self._probation, self._protected, self._pinned):
            if k in seg:
                return seg[k]
        raise KeyError(k)


class CachePartition:
    """One owner's view of a :class:`SharedBlockCache`.

    Drop-in for :class:`LRUBlockCache` from a storage engine's perspective:
    same methods, same dirty/write-back contract, per-owner ``stats``.
    Obtained from :meth:`SharedBlockCache.partition` (or, transparently,
    from :func:`make_block_cache`).
    """

    def __init__(self, shared: SharedBlockCache, owner: str):
        self.shared = shared
        self.owner = owner
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        return self.shared.capacity

    def scan_budget(self) -> int:
        return self.shared.scan_budget()

    def __len__(self) -> int:
        return len(self.shared._owned_keys(self.owner))

    def __contains__(self, key: Hashable) -> bool:
        return self.shared._contains(self.owner, key)

    def get(self, key: Hashable) -> bytes | None:
        return self.shared._get(self, key)

    def put(self, key: Hashable, data: bytes, dirty: bool = False) -> None:
        self.shared._put(self, key, data, dirty)

    def pin(self, key: Hashable, data: bytes) -> None:
        """Make ``key`` resident in the pool, exempt from eviction."""
        self.shared._pin(self, key, data)

    def unpin(self, key: Hashable) -> None:
        """Demote a pinned block to ordinary (evictable) residency."""
        self.shared._unpin(self, key)

    def invalidate(self, key: Hashable) -> None:
        k = (self.owner, key)
        self.shared._probation.pop(k, None)
        self.shared._protected.pop(k, None)
        self.shared._pinned.pop(k, None)
        self.shared._dirty.discard(k)

    def dirty_items(self) -> list[tuple[Hashable, bytes]]:
        sh = self.shared
        return [
            (k[1], sh._data_of(k))
            for k in sh._owned_keys(self.owner)
            if k in sh._dirty
        ]

    def flush(self) -> None:
        sh = self.shared
        for k in sh._owned_keys(self.owner):
            if k in sh._dirty:
                sh._dirty.discard(k)
                sh._write_back(k, sh._data_of(k))

    def clear(self) -> None:
        self.flush()
        sh = self.shared
        for k in sh._owned_keys(self.owner):
            for seg in (sh._probation, sh._protected, sh._pinned):
                if k in seg:
                    del seg[k]
                    break

    def drop(self) -> None:
        self.shared.drop_owner(self.owner)

    def detach(self) -> None:
        """The engine closed: leave the pool, blocks without write-back, so
        the pool no longer holds the engine's writer (a reference cycle
        through the node otherwise).  A re-attached successor stays."""
        sh = self.shared
        if sh._partitions.get(self.owner) is self:
            sh.drop_owner(self.owner)
            del sh._partitions[self.owner], sh._writers[self.owner]


def make_block_cache(
    capacity_blocks: int,
    writer: Callable[[Hashable, bytes], None] | None = None,
    shared: SharedBlockCache | None = None,
    owner: str = "default",
):
    """The one sanctioned way for a storage engine to obtain a block cache.

    Without ``shared`` this returns a private :class:`LRUBlockCache` — the
    historical per-engine behavior, bit-identical.  With ``shared`` the
    engine attaches to the rank's pool as ``owner`` and gets a
    :class:`CachePartition` (``capacity_blocks`` is then ignored; the pool
    was sized at construction).  Engines must not call ``LRUBlockCache``
    directly — the CI grep enforces it — so swapping a deployment onto a
    shared pool never requires touching engine code.
    """
    if shared is None:
        return LRUBlockCache(capacity_blocks, writer=writer)
    return shared.partition(owner, writer=writer)
