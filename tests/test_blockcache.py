"""Edge-case tests for the block caches and the coalesced grDB read path.

Complements ``test_pagedfile_cache.py`` with the behaviors the batched
fringe I/O path leans on: multi-block eviction order, flush idempotence
under interleaved dirtying, capacity-0 pass-through with dirty puts, the
hit/miss accounting of ``GrDBStorage.read_block_batch``, the one
cache-policy validator, the pinned segment of both caches and the scan
budget a streaming pass may insert.
"""

import pytest

from repro import MSSGConfig
from repro.graphdb.grdb import GrDBFormat
from repro.graphdb.grdb.storage import GrDBStorage
from repro.graphdb.registry import shared_cache_for
from repro.simcluster import NodeSpec, SimNode
from repro.storage import LRUBlockCache
from repro.storage.blockcache import (
    CachePartition,
    SharedBlockCache,
    make_block_cache,
    validate_cache_policy,
)
from repro.util.errors import ConfigError, StorageEngineError

FMT = GrDBFormat(
    capacities=(2, 4),
    block_sizes=(256, 256),
    max_file_bytes=1024,  # 4 blocks per file: block 4+ spills to file 1
)


def make_storage(cache_blocks: int = 64) -> GrDBStorage:
    node = SimNode(0, NodeSpec())
    return GrDBStorage(FMT, node.disk, cache_blocks=cache_blocks)


def filled_subblock(fill: int) -> bytes:
    return bytes([fill]) * FMT.subblock_bytes(0)


class TestLRUEdgeCases:
    def test_eviction_writes_back_in_lru_order(self):
        written = []
        c = LRUBlockCache(2, writer=lambda k, v: written.append(k))
        c.put("a", b"1", dirty=True)
        c.put("b", b"2", dirty=True)
        c.put("c", b"3")  # evicts a
        c.put("d", b"4")  # evicts b
        assert written == ["a", "b"]
        assert c.stats.evictions == 2 and c.stats.writebacks == 2

    def test_flush_idempotent_until_redirtied(self):
        written = []
        c = LRUBlockCache(4, writer=lambda k, v: written.append((k, v)))
        c.put("a", b"1", dirty=True)
        c.flush()
        c.flush()
        assert written == [("a", b"1")]
        c.put("a", b"2", dirty=True)
        c.flush()
        assert written == [("a", b"1"), ("a", b"2")]

    def test_zero_capacity_every_dirty_put_passes_through(self):
        written = []
        c = LRUBlockCache(0, writer=lambda k, v: written.append((k, v)))
        for i in range(3):
            c.put("k", bytes([i]), dirty=True)
        assert written == [("k", b"\x00"), ("k", b"\x01"), ("k", b"\x02")]
        assert c.get("k") is None and len(c) == 0
        c.flush()  # nothing retained, nothing to flush
        assert len(written) == 3

    def test_refresh_on_overwrite_protects_from_eviction(self):
        c = LRUBlockCache(2)
        c.put("a", b"1")
        c.put("b", b"2")
        c.put("a", b"3")  # overwrite refreshes recency; b is now LRU
        c.put("c", b"4")
        assert "a" in c and "b" not in c

    def test_clean_overwrite_clears_stale_dirty_bit(self):
        """A clean put over a dirty block must not leave the block dirty:
        the clean bytes are the device's truth, and writing them back (or
        worse, treating them as unsynced changes) is wrong."""
        written = []
        c = LRUBlockCache(4, writer=lambda k, v: written.append((k, v)))
        c.put("a", b"old", dirty=True)
        c.put("a", b"fresh-from-device")  # clean overwrite, e.g. re-read
        c.flush()
        assert written == []  # nothing dirty remains
        c.put("b", b"1")
        c.put("c", b"2")
        c.put("d", b"3")
        c.put("e", b"4")  # evicts "a" -- must not write it back either
        assert "a" not in c and written == []

    def test_drop_discards_dirty_blocks_without_writeback(self):
        written = []
        c = LRUBlockCache(4, writer=lambda k, v: written.append(k))
        c.put("a", b"1", dirty=True)
        c.put("b", b"2")
        c.drop()
        assert len(c) == 0 and written == []
        c.flush()  # nothing left to flush
        assert written == []


class TestCoalescedReads:
    def _write_blocks(self, st: GrDBStorage, blocks) -> None:
        k = FMT.subblocks_per_block(0)
        for b in blocks:
            st.write_subblock(0, b * k, filled_subblock(b + 1))

    def test_batch_counts_one_miss_per_cold_block(self):
        st = make_storage()
        self._write_blocks(st, [0, 1, 2])
        st.flush()
        st.cache.clear()
        before = st.cache.stats.misses
        out = st.read_block_batch(0, [0, 1, 2])
        assert sorted(out) == [0, 1, 2]
        assert st.cache.stats.misses - before == 3

    def test_batch_hits_on_second_pass(self):
        st = make_storage()
        self._write_blocks(st, [0, 1])
        st.read_block_batch(0, [0, 1])
        before_hits, before_misses = st.cache.stats.hits, st.cache.stats.misses
        st.read_block_batch(0, [0, 1])
        assert st.cache.stats.hits - before_hits == 2
        assert st.cache.stats.misses == before_misses

    def test_adjacent_cold_blocks_fetch_as_one_device_read(self):
        st = make_storage()
        self._write_blocks(st, [0, 1, 2, 3])
        st.flush()
        st.cache.clear()
        dev = st._device(0, 0)
        before = dev.stats.reads
        st.read_block_batch(0, [0, 1, 2, 3])
        assert dev.stats.reads - before == 1  # one coalesced run, not four

    def test_gap_splits_runs(self):
        st = make_storage()
        self._write_blocks(st, [0, 1, 3])
        st.flush()
        st.cache.clear()
        dev = st._device(0, 0)
        before = dev.stats.reads
        st.read_block_batch(0, [0, 1, 3])
        assert dev.stats.reads - before == 2  # run [0,1] and run [3]

    def test_batch_spans_files(self):
        st = make_storage()
        self._write_blocks(st, [3, 4])  # block 4 lives in file 1
        st.flush()
        st.cache.clear()
        out = st.read_block_batch(0, [3, 4])
        k = FMT.subblocks_per_block(0)
        assert out[3][: FMT.subblock_bytes(0)] == filled_subblock(4)
        assert out[4][: FMT.subblock_bytes(0)] == filled_subblock(5)
        assert len(st._files) >= 2

    def test_never_written_blocks_skip_the_device(self):
        st = make_storage()
        dev = st._device(0, 0)
        before = dev.stats.reads
        out = st.read_block_batch(0, [0, 1])
        assert all(data == FMT.empty_block(0) for data in out.values())
        assert dev.stats.reads == before

    def test_batch_matches_single_reads(self):
        st = make_storage()
        self._write_blocks(st, [0, 2, 3])
        st.flush()
        st.cache.clear()
        batch = st.read_block_batch(0, [3, 0, 2, 1])
        st2 = make_storage()
        self._write_blocks(st2, [0, 2, 3])
        st2.flush()
        st2.cache.clear()
        for b in (0, 1, 2, 3):
            assert batch[b] == st2._read_block(0, b)


class TestBatchCapacityCap:
    """A plan larger than the cache must not thrash the cache against
    itself: later inserts of the same batch would evict its earlier blocks
    (forcing mid-read write-backs) with nothing surviving to be reused."""

    def _filled(self, st: GrDBStorage, blocks) -> None:
        k = FMT.subblocks_per_block(0)
        for b in blocks:
            st.write_subblock(0, b * k, filled_subblock(b + 1))

    def test_oversized_batch_does_not_self_evict(self):
        st = make_storage(cache_blocks=2)
        self._filled(st, range(5))
        st.flush()
        st.cache.drop()
        evictions_before = st.cache.stats.evictions
        out = st.read_block_batch(0, range(5))
        assert sorted(out) == [0, 1, 2, 3, 4]  # data still complete
        assert len(st.cache) <= 2
        assert st.cache.stats.evictions == evictions_before

    def test_oversized_batch_returns_correct_bytes(self):
        st = make_storage(cache_blocks=2)
        self._filled(st, range(5))
        st.flush()
        st.cache.drop()
        out = st.read_block_batch(0, range(5))
        for b in range(5):
            assert out[b][: FMT.subblock_bytes(0)] == filled_subblock(b + 1)


class TestAllocatorGuards:
    def test_free_then_reallocate_roundtrip(self):
        st = make_storage()
        sb = st.allocate_subblock(1)
        st.free_subblock(1, sb)
        assert st.allocate_subblock(1) == sb

    def test_double_free_rejected(self):
        from repro.util import GraphStorageException

        st = make_storage()
        sb = st.allocate_subblock(1)
        st.free_subblock(1, sb)
        with pytest.raises(GraphStorageException, match="double free"):
            st.free_subblock(1, sb)

    def test_free_never_allocated_rejected(self):
        from repro.util import GraphStorageException

        st = make_storage()
        st.allocate_subblock(1)
        with pytest.raises(GraphStorageException, match="never-allocated"):
            st.free_subblock(1, 99)

    def test_free_level_zero_rejected(self):
        from repro.util import GraphStorageException

        st = make_storage()
        with pytest.raises(GraphStorageException, match="id-addressed"):
            st.free_subblock(0, 0)

    def test_free_out_of_range_level_rejected(self):
        from repro.util import GraphStorageException

        st = make_storage()
        with pytest.raises(GraphStorageException):
            st.free_subblock(FMT.num_levels, 0)


class TestCachePolicyValidation:
    def test_helper_accepts_known_policies(self):
        assert validate_cache_policy("lru") == "lru"
        assert validate_cache_policy("2q") == "2q"

    def test_helper_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown cache_policy 'clock'"):
            validate_cache_policy("clock")

    def test_config_and_pool_use_the_same_wording(self):
        with pytest.raises(ConfigError) as from_config:
            MSSGConfig(cache_policy="mru")
        with pytest.raises(ConfigError) as from_registry:
            shared_cache_for(SimNode(0, NodeSpec()), 8, "mru")
        assert str(from_config.value) == str(from_registry.value)

class TestLRUPinning:
    def test_pinned_blocks_survive_a_sweep(self):
        cache = LRUBlockCache(4)
        cache.pin("dir", b"D")
        for i in range(50):
            cache.put(i, b"x")
        assert cache.get("dir") == b"D"
        assert cache.pinned_blocks == 1
        assert len(cache) <= 4

    def test_pin_evicts_overflow_and_writes_back_dirty(self):
        written = {}
        cache = LRUBlockCache(2, writer=written.__setitem__)
        cache.put("a", b"A", dirty=True)
        cache.put("b", b"B", dirty=True)
        cache.pin("dir", b"D")
        assert written == {"a": b"A"}  # LRU victim flushed, not lost
        assert cache.get("b") == b"B"

    def test_pin_beyond_capacity_raises(self):
        cache = LRUBlockCache(1)
        cache.pin("a", b"A")
        with pytest.raises(StorageEngineError, match="cannot pin"):
            cache.pin("b", b"B")
        cache.pin("a", b"A2")  # re-pin of a pinned key is an update
        assert cache.get("a") == b"A2"

    def test_pinned_key_cannot_be_dirtied(self):
        cache = LRUBlockCache(2)
        cache.pin("dir", b"D")
        with pytest.raises(StorageEngineError, match="cannot be dirtied"):
            cache.put("dir", b"D2", dirty=True)
        cache.put("dir", b"D3")  # clean overwrite updates in place
        assert cache.get("dir") == b"D3"

    def test_unpin_demotes_to_evictable(self):
        cache = LRUBlockCache(2)
        cache.pin("dir", b"D")
        cache.unpin("dir")
        assert cache.pinned_blocks == 0
        for i in range(3):
            cache.put(i, b"x")
        assert cache.get("dir") is None  # evicted like any other block

    def test_invalidate_and_drop_clear_pinned(self):
        cache = LRUBlockCache(2)
        cache.pin("dir", b"D")
        cache.invalidate("dir")
        assert "dir" not in cache
        cache.pin("dir", b"D")
        cache.drop()
        assert cache.pinned_blocks == 0


class TestSharedPinning:
    def _pool(self, capacity):
        pool = SharedBlockCache(capacity)
        return pool, pool.partition("eng")

    def test_pinned_blocks_survive_a_sweep(self):
        pool, part = self._pool(4)
        part.pin("dir", b"D")
        for i in range(50):
            part.put(i, bytes([i]))
        assert part.get("dir") == b"D"
        assert pool.pinned_blocks == 1
        assert len(pool) <= 4

    def test_pin_beyond_capacity_raises(self):
        pool, part = self._pool(1)
        part.pin("a", b"A")
        with pytest.raises(StorageEngineError, match="cannot pin"):
            part.pin("b", b"B")

    def test_pinned_key_cannot_be_dirtied(self):
        pool, part = self._pool(4)
        part.pin("dir", b"D")
        with pytest.raises(StorageEngineError, match="cannot be dirtied"):
            part.put("dir", b"D2", dirty=True)

    def test_unpin_then_eviction(self):
        pool, part = self._pool(2)
        part.pin("dir", b"D")
        part.unpin("dir")
        assert pool.pinned_blocks == 0
        for i in range(3):
            part.put(i, b"x")
        assert part.get("dir") is None

    def test_pin_is_namespaced_by_owner(self):
        pool = SharedBlockCache(4)
        a, b = pool.partition("a"), pool.partition("b")
        a.pin("dir", b"A")
        b.pin("dir", b"B")
        assert a.get("dir") == b"A"
        assert b.get("dir") == b"B"
        pool.drop_owner("a")
        assert a.get("dir") is None
        assert b.get("dir") == b"B"

    def test_clear_flushes_then_drops_pinned(self):
        written = {}
        pool = SharedBlockCache(4)
        part = pool.partition("eng", writer=written.__setitem__)
        part.put("blk", b"B", dirty=True)
        part.pin("dir", b"D")
        part.clear()
        assert written == {"blk": b"B"}
        assert len(pool) == 0


class TestScanBudget:
    def test_private_lru_budget_is_free_capacity(self):
        cache = LRUBlockCache(8)
        assert cache.scan_budget() == 8
        cache.pin("dir", b"D")
        assert cache.scan_budget() == 7

    def test_capacity_smaller_than_one_scan_batch(self):
        # A tiny pool still grants a positive budget so a streaming pass can
        # make progress one block at a time instead of livelocking.
        assert LRUBlockCache(1).scan_budget() == 1
        assert SharedBlockCache(1).scan_budget() == 1
        assert SharedBlockCache(0).scan_budget() == 0

    def test_2q_budget_is_probation_share(self):
        pool = SharedBlockCache(16)
        # protected cap = 12, so a scan may churn the 4 probation slots.
        assert pool.scan_budget() == 4
        assert pool.partition("eng").scan_budget() == 4

    def test_2q_with_empty_protected_segment(self):
        # Whether protected is populated is irrelevant: the budget reserves
        # the protected *cap*, so it is identical before and after promotion.
        pool = SharedBlockCache(16)
        part = pool.partition("eng")
        empty_budget = pool.scan_budget()
        part.put("hot", b"H")
        part.get("hot")  # promote into protected
        assert pool.scan_budget() == empty_budget == 4

    def test_2q_all_capacity_reserved_grants_minimum_one(self):
        # 4 blocks -> protected cap 3 -> naive budget 1; shrink to 2 blocks
        # -> protected cap 1 -> budget 1 as well.  Never 0 while free > 0.
        for cap in (2, 3, 4):
            assert SharedBlockCache(cap).scan_budget() >= 1

    def test_fully_pinned_pool_has_zero_budget(self):
        pool = SharedBlockCache(2)
        part = pool.partition("eng")
        part.pin("d0", b"0")
        part.pin("d1", b"1")
        assert pool.scan_budget() == 0
        assert part.scan_budget() == 0
        # Pass-through puts neither cache nor evict the pinned blocks.
        part.put("x", b"X")
        assert part.get("x") is None
        assert part.get("d0") == b"0"

    def test_partition_of_factory_exposes_budget(self):
        pool = SharedBlockCache(16)
        part = make_block_cache(0, shared=pool, owner="eng")
        assert isinstance(part, CachePartition)
        assert part.scan_budget() == pool.scan_budget()

if __name__ == "__main__":
    pytest.main([__file__, "-v"])
