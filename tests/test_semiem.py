"""Semi-external-memory mode (``MSSGConfig.semi_external``).

Covers the three layers of the semi-EM design — the pinned vertex state
(resident degree census, metadata, visited levels), the selective
adjacency I/O directories of StreamDB and grDB, and the pinned segment of
the block caches with its scan-budget accounting — plus the centralized
cache-policy validation and deployment-level equivalence: every backend
answers bit-identically with ``semi_external`` on and off across the
batch-I/O / direction-opt / replication / shared-scan knobs, while the
out-of-core backends read fewer device blocks on sparse frontiers.
"""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import INFINITY, PinnedVisited
from repro.graphdb import GrDBFormat
from repro.graphdb.metadata import UNSET, PinnedMetadata
from repro.graphdb.registry import BACKENDS, OUT_OF_CORE_BACKENDS, shared_cache_for
from repro.graphdb.stream_db import StreamGraphDB
from repro.simcluster import NodeSpec, SimNode
from repro.storage.blockcache import (
    CachePartition,
    LRUBlockCache,
    SharedBlockCache,
    make_block_cache,
    validate_cache_policy,
)
from repro.util.errors import ConfigError, StorageEngineError

from .helpers import make_store


def _random_edges(rng, nverts, nedges):
    return rng.integers(0, nverts, size=(nedges, 2), dtype=np.int64)


# -- cache-policy validation (the one helper, everywhere) --------------------


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
        with pytest.raises(ConfigError) as from_pool:
            SharedBlockCache(8, policy="mru")
        with pytest.raises(ConfigError) as from_registry:
            shared_cache_for(SimNode(0, NodeSpec()), 8, "mru")
        assert str(from_config.value) == str(from_pool.value) == str(from_registry.value)

    def test_registry_rejects_policy_mismatch_on_existing_pool(self):
        node = SimNode(0, NodeSpec())
        pool = shared_cache_for(node, 8, "2q")
        assert pool is node.shared_block_cache
        # Same policy re-attaches to the same pool; "lru" means private
        # caches, not a pool at all.
        assert shared_cache_for(node, 8, "2q") is pool
        assert shared_cache_for(node, 8, "lru") is None
        # A pool built with a different (valid) policy — e.g. installed
        # explicitly by an embedding application — must be rejected, not
        # silently rebuilt.
        node2 = SimNode(1, NodeSpec())
        node2.shared_block_cache = SharedBlockCache(8, policy="lru")
        with pytest.raises(ConfigError, match="already has a 'lru' shared block cache"):
            make_store("grDB", node2, cache_blocks=8, cache_policy="2q")

    def test_registry_mismatch_does_not_rebuild_pool(self):
        node = SimNode(0, NodeSpec())
        node.shared_block_cache = pool = SharedBlockCache(8, policy="lru")
        keeper = pool.partition("keeper")
        keeper.put("hot", b"x")
        with pytest.raises(ConfigError):
            shared_cache_for(node, 8, "2q")
        assert node.shared_block_cache is pool
        assert keeper.get("hot") == b"x"  # pool untouched


# -- pinned segment of the block caches --------------------------------------


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
    def _pool(self, capacity, policy="2q"):
        pool = SharedBlockCache(capacity, policy=policy)
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
        pool, part = self._pool(2, policy="lru")
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
        assert SharedBlockCache(1, policy="2q").scan_budget() == 1
        assert SharedBlockCache(0, policy="2q").scan_budget() == 0

    def test_2q_budget_is_probation_share(self):
        pool = SharedBlockCache(16, policy="2q")
        # protected cap = 12, so a scan may churn the 4 probation slots.
        assert pool.scan_budget() == 4
        assert pool.partition("eng").scan_budget() == 4

    def test_2q_with_empty_protected_segment(self):
        # Whether protected is populated is irrelevant: the budget reserves
        # the protected *cap*, so it is identical before and after promotion.
        pool = SharedBlockCache(16, policy="2q")
        part = pool.partition("eng")
        empty_budget = pool.scan_budget()
        part.put("hot", b"H")
        part.get("hot")  # promote into protected
        assert pool.scan_budget() == empty_budget == 4

    def test_2q_all_capacity_reserved_grants_minimum_one(self):
        # 4 blocks -> protected cap 3 -> naive budget 1; shrink to 2 blocks
        # -> protected cap 1 -> budget 1 as well.  Never 0 while free > 0.
        for cap in (2, 3, 4):
            assert SharedBlockCache(cap, policy="2q").scan_budget() >= 1

    def test_fully_pinned_pool_has_zero_budget(self):
        pool = SharedBlockCache(2, policy="2q")
        part = pool.partition("eng")
        part.pin("d0", b"0")
        part.pin("d1", b"1")
        assert pool.scan_budget() == 0
        assert part.scan_budget() == 0
        # Pass-through puts neither cache nor evict the pinned blocks.
        part.put("x", b"X")
        assert part.get("x") is None
        assert part.get("d0") == b"0"

    def test_lru_policy_pool_budget_shrinks_with_pinning(self):
        pool = SharedBlockCache(8, policy="lru")
        part = pool.partition("eng")
        assert pool.scan_budget() == 8
        part.pin("dir", b"D")
        assert pool.scan_budget() == 7

    def test_partition_of_factory_exposes_budget(self):
        pool = SharedBlockCache(16, policy="2q")
        part = make_block_cache(0, shared=pool, owner="eng")
        assert isinstance(part, CachePartition)
        assert part.scan_budget() == pool.scan_budget()


# -- pinned vertex state / metadata / visited --------------------------------


class TestPinnedMetadata:
    def test_defaults_and_bounds(self):
        meta = PinnedMetadata(8)
        assert meta.get(3) == UNSET
        assert meta.get(-1) == UNSET and meta.get(99) == UNSET
        meta.set(3, 7)
        assert meta.get(3) == 7
        assert meta.get_many([2, 3, 99]).tolist() == [UNSET, 7, UNSET]
        meta.set_many([0, 1], 2)
        assert meta.get_many([0, 1]).tolist() == [2, 2]
        meta.clear()
        assert meta.get(3) == UNSET

    def test_resident_bytes_and_negative_size(self):
        assert PinnedMetadata(1000).resident_bytes == 4000
        with pytest.raises(ValueError):
            PinnedMetadata(-1)


class TestPinnedVisited:
    def test_level_semantics_match_visited_contract(self):
        vis = PinnedVisited(10)
        assert not vis.is_visited(4)
        assert vis.level(4) == INFINITY
        vis.mark_many([4, 5], 2)
        assert vis.is_visited(4) and vis.level(5) == 2
        assert vis.unvisited(np.arange(10)).tolist() == [0, 1, 2, 3, 6, 7, 8, 9]
        assert vis.resident_bytes == 40
        vis.flush()  # no-op, kept for ExternalVisited parity


class TestPinnedVertexState:
    def _db(self, backend, semi=True, node=None, **kw):
        node = node if node is not None else SimNode(0, NodeSpec())
        return make_store(backend, node, cache_blocks=32, semi_external=semi, **kw)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degree_and_vertices_served_from_pinned_arrays(self, backend):
        db = self._db(backend)
        edges = np.array([[1, 2], [1, 3], [5, 1], [9, 9]], dtype=np.int64)
        db.store_edges(edges)
        db.finalize_ingest()
        state = db.pin_vertex_state()
        assert state.vertices.tolist() == [1, 5, 9]
        assert state.degrees.tolist() == [2, 1, 1]
        assert db.local_vertices().tolist() == [1, 5, 9]
        assert db.degree_many([0, 1, 5, 9, 42]).tolist() == [0, 2, 1, 1, 0]
        assert db.pinned_resident_bytes() >= state.resident_bytes

    def test_degree_many_needs_no_device_after_pinning(self):
        db = self._db("grDB")
        db.store_edges(_random_edges(np.random.default_rng(0), 30, 300))
        db.finalize_ingest()
        db.flush()
        db.pin_vertex_state()
        before = db.storage.total_device_stats()["reads"]
        db.degree_many(np.arange(30))
        db.local_vertices()
        assert db.storage.total_device_stats()["reads"] == before

    @pytest.mark.parametrize("compress", [False, True], ids=["raw", "compressed"])
    def test_restored_grdb_census_adds_the_pieces_of_a_chained_list(self, compress):
        """A store restored from device rebuilds its degree census from one
        sweep, and a sweep delivers a chained list one piece per level:
        the census must add the pieces (it used to keep the last one)."""
        node = SimNode(0, NodeSpec())
        kw = dict(grdb_format=TestGrDBDirectory.FMT, compress_adjacency=compress)
        db = self._db("grDB", semi=False, node=node, **kw)
        rng = np.random.default_rng(5)
        for _ in range(3):  # several ingest windows: chains grow across them
            db.store_edges(_random_edges(rng, 12, 500))
        assert max(len(db.chain_of(v)) for v in range(12)) >= 3  # level 0, 1, 2, ...
        want = db.degree_many(np.arange(14)).tolist()
        assert min(want[:12]) > 20 and want[12:] == [0, 0]
        db.close()

        reopened = self._db("grDB", node=node, **kw)
        assert reopened.restored and not reopened._degree
        assert reopened.pin_vertex_state().degrees.tolist() == want[:12]
        assert reopened.degree_many(np.arange(14)).tolist() == want

    def test_store_edges_invalidates_and_repins(self):
        db = self._db("HashMap")
        db.store_edges(np.array([[1, 2]], dtype=np.int64))
        assert db.degree_many([1]).tolist() == [1]
        db.store_edges(np.array([[1, 3], [7, 1]], dtype=np.int64))
        assert db.degree_many([1, 7]).tolist() == [2, 1]
        assert db.local_vertices().tolist() == [1, 7]

    def test_off_by_default_no_pinned_state(self):
        db = self._db("Array", semi=False)
        db.store_edges(np.array([[1, 2]], dtype=np.int64))
        assert db._pinned() is None
        assert db.degree_many([1]).tolist() == [1]


# -- StreamDB selective adjacency I/O ----------------------------------------


class TestStreamDBSelective:
    def _db(self, semi=True, compress=False, nflushes=8, seed=3):
        node = SimNode(0, NodeSpec())
        db = StreamGraphDB(
            node.disk("log"),
            compress=compress,
            clock=node.clock,
            cpu=node.spec.cpu,
            semi_external=semi,
        )
        rng = np.random.default_rng(seed)
        # Each flush covers a narrow source range so record extents are
        # selective (the log is "sorted-ish", as windowed ingest makes it).
        for i in range(nflushes):
            lo = i * 100
            edges = np.column_stack(
                [
                    rng.integers(lo, lo + 100, size=40),
                    rng.integers(0, nflushes * 100, size=40),
                ]
            ).astype(np.int64)
            db.store_edges(edges)
            db.flush()
        return node, db

    @pytest.mark.parametrize("compress", [False, True])
    def test_selective_matches_full_scan(self, compress):
        _, db = self._db(compress=compress)
        _, full = self._db(semi=False, compress=compress)
        for v in (0, 55, 310, 799):
            assert db.get_adjacency(v).tolist() == full.get_adjacency(v).tolist()
        assert full.selective_scans == 0
        assert db.selective_scans > 0
        assert db.records_skipped > 0

    def test_sparse_frontier_reads_fewer_device_bytes(self):
        node_s, sel = self._db(semi=True)
        node_f, full = self._db(semi=False)
        b0_s = node_s._disks["log"].stats.bytes_read
        b0_f = node_f._disks["log"].stats.bytes_read
        got_s = dict(p for b in sel.scan_adjacency(np.array([5, 710])) for p in b)
        got_f = dict(p for b in full.scan_adjacency(np.array([5, 710])) for p in b)
        assert {v: sorted(a.tolist()) for v, a in got_s.items()} == {
            v: sorted(a.tolist()) for v, a in got_f.items()
        }
        read_s = node_s._disks["log"].stats.bytes_read - b0_s
        read_f = node_f._disks["log"].stats.bytes_read - b0_f
        assert read_s < read_f

    def test_dense_frontier_falls_back_to_full_scan(self):
        _, db = self._db()
        cov = db.frontier_block_coverage(np.arange(800))
        assert cov == 1.0
        assert db._scan_selective(np.arange(800, dtype=np.int64)) is None
        assert db.selective_scans == 0

    def test_restore_disables_directory(self):
        node = SimNode(0, NodeSpec())
        dev, meta = node.disk("log"), node.disk("log_meta")
        db = StreamGraphDB(dev, meta_device=meta, clock=node.clock, semi_external=True)
        db.store_edges(np.array([[1, 2], [3, 4]], dtype=np.int64))
        db.flush()
        db2 = StreamGraphDB(dev, meta_device=meta, clock=node.clock, semi_external=True)
        assert db2.restored
        assert db2._records is None
        assert db2.frontier_block_coverage(np.array([1])) is None
        assert db2._scan_selective(np.array([1], dtype=np.int64)) is None
        assert sorted(db2.get_adjacency(1).tolist()) == [2]

    def test_directory_bytes_charged(self):
        _, db = self._db(nflushes=4)
        assert db._directory_bytes() == 4 * 5 * 8
        db.pin_vertex_state()
        assert db.pinned_resident_bytes() >= db._directory_bytes()

    def test_semi_off_never_selective(self):
        _, db = self._db(semi=False)
        assert db._scan_selective(np.array([5], dtype=np.int64)) is None
        assert db.frontier_block_coverage(np.array([5])) is None


# -- grDB block directory ----------------------------------------------------


class TestGrDBDirectory:
    # Tiny geometry so the 40-vertex store spans several level-0 blocks
    # (the default format would put them all in one, making every
    # coverage reading 1.0).
    FMT = GrDBFormat(
        capacities=(2, 4, 16, 64),
        block_sizes=(256, 256, 256, 1024),
        max_file_bytes=4096,
    )

    def _db(self, semi=True, cache_blocks=64):
        node = SimNode(0, NodeSpec())
        db = make_store(
            "grDB",
            node,
            cache_blocks=cache_blocks,
            grdb_format=self.FMT,
            semi_external=semi,
        )
        db.store_edges(_random_edges(np.random.default_rng(7), 40, 400))
        db.finalize_ingest()
        db.flush()
        return db

    def test_directory_built_on_pin(self):
        db = self._db()
        db.pin_vertex_state()
        assert db._block_dir is not None and len(db._block_dir) > 0
        assert db.storage.cache.pinned_blocks > 0
        assert db.pinned_resident_bytes() >= db._block_dir.nbytes

    def test_coverage_sparse_vs_dense(self):
        db = self._db()
        db.pin_vertex_state()
        sparse = db.frontier_block_coverage(np.array([0]))
        dense = db.frontier_block_coverage(np.arange(40))
        assert sparse is not None and dense is not None
        assert 0.0 <= sparse < dense <= 1.0
        assert db.frontier_block_coverage(np.array([], dtype=np.int64)) == 0.0

    def test_tiny_cache_skips_best_effort_pin(self):
        db = self._db(cache_blocks=2)
        db.pin_vertex_state()
        # Directory array still resident and serving coverage; the cache
        # copy is skipped rather than squeezing out the working set.
        assert db._block_dir is not None
        assert db.storage.cache.pinned_blocks == 0
        assert db.frontier_block_coverage(np.array([0])) is not None

    def test_semi_off_reports_no_coverage(self):
        db = self._db(semi=False)
        assert db.frontier_block_coverage(np.array([0])) is None


# -- deployment equivalence and budget ---------------------------------------


def _workload(seed=17, nverts=160, nedges=1400):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            rng.integers(0, nverts, size=nedges),
            rng.integers(0, nverts, size=nedges),
        ]
    ).astype(np.int64)


_QUERIES = [(0, 150), (3, 77), (10, 11), (42, 139), (5, 5)]


def _answers(semi, backend, visited="memory", **cfg_kw):
    mssg = MSSG(
        MSSGConfig(
            num_backends=3,
            num_frontends=1,
            backend=backend,
            cache_blocks=8,
            semi_external=semi,
            **cfg_kw,
        )
    )
    try:
        mssg.ingest(_workload())
        return [
            (r.result, r.levels)
            for r in (mssg.query_bfs(s, d, visited=visited) for s, d in _QUERIES)
        ]
    finally:
        mssg.close()


class TestDeploymentEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_bit_identical(self, backend):
        assert _answers(True, backend) == _answers(False, backend)

    @pytest.mark.parametrize("backend", ["grDB", "StreamDB"])
    @pytest.mark.parametrize(
        "knobs",
        [
            {"batch_io": False},
            {"direction_opt": False},
            {"replication": 2},
            {"shared_scans": False},
            {"batch_io": False, "direction_opt": False, "replication": 2},
        ],
        ids=lambda k: "+".join(f"{n}={v}" for n, v in k.items()),
    )
    def test_knob_sweep_bit_identical(self, backend, knobs):
        assert _answers(True, backend, **knobs) == _answers(False, backend, **knobs)

    @pytest.mark.parametrize("backend", ["grDB", "StreamDB"])
    def test_external_visited_bit_identical(self, backend):
        assert _answers(True, backend, visited="external") == _answers(
            False, backend, visited="external"
        )

    @pytest.mark.parametrize("backend", OUT_OF_CORE_BACKENDS)
    def test_semi_em_reads_fewer_device_blocks(self, backend):
        def reads(semi):
            mssg = MSSG(
                MSSGConfig(num_backends=3, backend=backend, semi_external=semi)
            )
            try:
                mssg.ingest(_workload())
                for s, d in _QUERIES:
                    mssg.query_bfs(s, d, visited="external")
                return sum(
                    sum(dev.stats.reads for dev in node._disks.values())
                    for node in mssg.cluster.nodes
                )
            finally:
                mssg.close()

        assert reads(True) < reads(False)

    def test_query_many_bit_identical(self):
        def drain(semi):
            mssg = MSSG(
                MSSGConfig(num_backends=3, backend="StreamDB", semi_external=semi)
            )
            try:
                mssg.ingest(_workload())
                report = mssg.query_many(_QUERIES, visited="external")
                return [r.result for r in report.queries]
            finally:
                mssg.close()

        assert drain(True) == drain(False)


class TestBudget:
    def test_over_budget_raises_at_ingest(self):
        mssg = MSSG(
            MSSGConfig(
                num_backends=2,
                backend="HashMap",
                semi_external=True,
                semi_external_budget_bytes=64,
            )
        )
        try:
            with pytest.raises(ConfigError, match="semi_external_budget_bytes"):
                mssg.ingest(_workload())
        finally:
            mssg.close()

    def test_eager_pin_happens_at_ingest(self):
        mssg = MSSG(MSSGConfig(num_backends=2, backend="grDB", semi_external=True))
        try:
            mssg.ingest(_workload())
            for db in mssg.dbs:
                assert db._pinned_state is not None
                assert db.pinned_resident_bytes() > 0
        finally:
            mssg.close()

    def test_budget_must_be_positive_when_armed(self):
        with pytest.raises(ConfigError, match="semi_external_budget_bytes"):
            MSSGConfig(semi_external=True, semi_external_budget_bytes=0)
        MSSGConfig(semi_external=False, semi_external_budget_bytes=0)  # ignored off
