"""grDB-specific tests: slot encoding, addressing math, chains, policies,
defragmentation, caching, and declustered id maps."""

import numpy as np
import pytest

from repro.graphdb import GrDB, GrDBFormat, ModuloMap
from repro.graphdb.grdb import (
    EMPTY_SLOT,
    MAX_VERTEX_ID,
    chain_length,
    decode_pointer,
    defragment,
    defragment_vertex,
    encode_pointer,
    is_empty,
    is_pointer,
)
from repro.graphdb.grdb.storage import GrDBStorage
from repro.simcluster import BlockDevice, NodeSpec, SimNode
from repro.util import ConfigError, GraphStorageException

SMALL_FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
)


def make_db(fmt=SMALL_FMT, **kw):
    node = SimNode(0, NodeSpec())
    return GrDB(node.disk, fmt=fmt, clock=node.clock, cpu=node.spec.cpu, **kw), node


class TestSlotEncoding:
    def test_pointer_roundtrip(self):
        for level, sb in [(0, 0), (5, 12345), (31, (1 << 56) - 1)]:
            slot = encode_pointer(level, sb)
            assert is_pointer(slot)
            assert not is_empty(slot)
            assert decode_pointer(slot) == (level, sb)

    def test_plain_vertex_not_pointer(self):
        assert not is_pointer(0)
        assert not is_pointer(MAX_VERTEX_ID)

    def test_empty_slot_distinct(self):
        assert is_empty(EMPTY_SLOT)
        assert not is_pointer(EMPTY_SLOT)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            encode_pointer(32, 0)
        with pytest.raises(ConfigError):
            encode_pointer(0, 1 << 56)
        with pytest.raises(ConfigError):
            decode_pointer(42)


class TestFormat:
    def test_paper_default_geometry(self):
        fmt = GrDBFormat()
        assert fmt.capacities == (2, 4, 16, 256, 4096, 16384)
        assert fmt.subblocks_per_block(0) == 256  # 4096 / (2*8)
        assert fmt.subblocks_per_block(3) == 2  # 4096 / (256*8)
        assert fmt.subblocks_per_block(4) == 1  # 32768 / (4096*8)
        assert fmt.blocks_per_file(0) == (256 << 20) // 4096

    def test_locate_formula(self):
        fmt = SMALL_FMT
        # Level 0: sub-block 16 bytes, block 256 B -> k=16; file 4096 B -> N=16.
        k, N, B = 16, 16, 256
        s = 300
        file_idx, offset, block, slot_off = fmt.locate(0, s)
        assert block == s // k
        assert file_idx == (s // k) // N
        assert offset == B * ((s // k) % N) + 16 * (s % k)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GrDBFormat(capacities=(2, 3), block_sizes=(4096, 4096))  # d1 < 2*d0
        with pytest.raises(ConfigError):
            GrDBFormat(capacities=(2,), block_sizes=(100,))  # not multiple
        with pytest.raises(ConfigError):
            GrDBFormat(capacities=(2, 4), block_sizes=(4096,))
        with pytest.raises(ConfigError):
            GrDBFormat(capacities=(), block_sizes=())
        with pytest.raises(ConfigError):
            GrDBFormat(capacities=(1,), block_sizes=(4096,))
        with pytest.raises(ConfigError):
            GrDBFormat(capacities=(2,), block_sizes=(4096,), max_file_bytes=100)

    def test_total_chain_capacity(self):
        assert SMALL_FMT.total_chain_capacity() == (2 - 1) + (4 - 1) + (16 - 1) + 64


class TestStorageComponent:
    def test_unwritten_subblock_reads_empty(self):
        node = SimNode(0, NodeSpec())
        st = GrDBStorage(SMALL_FMT, node.disk)
        data = st.read_subblock(0, 123)
        assert data == b"\xff" * 16

    def test_subblock_roundtrip_and_isolation(self):
        node = SimNode(0, NodeSpec())
        st = GrDBStorage(SMALL_FMT, node.disk)
        st.write_subblock(1, 5, b"A" * 32)
        st.write_subblock(1, 6, b"B" * 32)
        assert st.read_subblock(1, 5) == b"A" * 32
        assert st.read_subblock(1, 6) == b"B" * 32
        # Neighbor in the same block untouched:
        assert st.read_subblock(1, 4) == b"\xff" * 32

    def test_multi_file_spill(self):
        node = SimNode(0, NodeSpec())
        st = GrDBStorage(SMALL_FMT, node.disk)
        # Level 3: block 1024 B = one 512 B sub-block...  k = 2, N = 4.
        many = SMALL_FMT.blocks_per_file(3) * SMALL_FMT.subblocks_per_block(3) + 3
        for s in range(many):
            st.write_subblock(3, s, bytes([s % 251]) * 512)
        st.flush()
        stats = st.total_device_stats()
        assert stats["files"] >= 2  # spilled into a second storage file
        for s in range(many):
            assert st.read_subblock(3, s) == bytes([s % 251]) * 512

    def test_allocator_and_freelist(self):
        node = SimNode(0, NodeSpec())
        st = GrDBStorage(SMALL_FMT, node.disk)
        a = st.allocate_subblock(1)
        b = st.allocate_subblock(1)
        assert (a, b) == (0, 1)
        st.free_subblock(1, a)
        assert st.allocate_subblock(1) == a  # recycled
        assert st.allocated_subblocks(1) == 2
        with pytest.raises(ConfigError):
            st.allocate_subblock(0)

    def test_bad_writes(self):
        node = SimNode(0, NodeSpec())
        st = GrDBStorage(SMALL_FMT, node.disk)
        with pytest.raises(GraphStorageException):
            st.write_subblock(0, 0, b"wrong size")
        with pytest.raises(GraphStorageException):
            st.read_subblock(99, 0)
        with pytest.raises(GraphStorageException):
            st.read_subblock(0, -1)


class TestChains:
    def test_degree_within_level0(self):
        db, _ = make_db()
        db.store_edges([(5, 10), (5, 11)])  # d0 = 2, exactly fits
        assert db.get_adjacency(5).tolist() == [10, 11]
        assert chain_length(db, 5) == 1

    def test_chain_grows_level_by_level(self):
        db, _ = make_db(growth_policy="link")
        # Degree 3 spills to level 1: L0 holds 1 entry + pointer.
        db.store_edges([(5, 10), (5, 11), (5, 12)])
        assert sorted(db.get_adjacency(5).tolist()) == [10, 11, 12]
        chain = db.chain_of(5)
        assert [lvl for lvl, _ in chain] == [0, 1]
        # Grow through level 2.
        db.store_edges([(5, x) for x in range(13, 23)])
        assert len(db.get_adjacency(5)) == 13
        assert [lvl for lvl, _ in chain_path(db, 5)] == [0, 1, 2]

    def test_link_policy_chains_at_top(self):
        db, _ = make_db(growth_policy="link")
        n = 200  # beyond total chain capacity (83): chains extra top blocks
        db.store_edges([(1, x + 100) for x in range(n)])
        got = db.get_adjacency(1)
        assert sorted(got.tolist()) == list(range(100, 100 + n))
        levels = [lvl for lvl, _ in chain_path(db, 1)]
        assert levels[:4] == [0, 1, 2, 3]
        assert all(lv == 3 for lv in levels[3:])

    def test_move_policy_keeps_chain_short(self):
        db, _ = make_db(growth_policy="move")
        db.store_edges([(7, x) for x in range(30)])  # within level 3
        assert sorted(db.get_adjacency(7).tolist()) == list(range(30))
        assert chain_length(db, 7) == 2  # L0 -> tail, always

    def test_move_policy_frees_subblocks(self):
        db, _ = make_db(growth_policy="move")
        db.store_edges([(7, x) for x in range(30)])
        # Levels 1 and 2 sub-blocks were moved out of and recycled.
        assert db.storage.allocated_subblocks(1) == 0
        assert db.storage.allocated_subblocks(2) == 0

    def test_policies_agree_on_contents(self):
        rng = np.random.default_rng(0)
        edges = np.column_stack(
            [rng.integers(0, 20, 400), rng.integers(0, 1000, 400)]
        ).astype(np.int64)
        dbl, _ = make_db(growth_policy="link")
        dbm, _ = make_db(growth_policy="move")
        for db in (dbl, dbm):
            for i in range(0, 400, 37):  # uneven batches
                db.store_edges(edges[i : i + 37])
        for v in range(20):
            assert sorted(dbl.get_adjacency(v).tolist()) == sorted(
                dbm.get_adjacency(v).tolist()
            )

    def test_memo_invalidation_rewalks_disk(self):
        db, _ = make_db()
        db.store_edges([(3, x) for x in range(10)])
        db.invalidate_tail_memo(3)
        db.store_edges([(3, 99)])
        assert 99 in db.get_adjacency(3).tolist()
        db.invalidate_tail_memo()
        assert len(db.get_adjacency(3)) == 11

    def test_id_too_large(self):
        db, _ = make_db()
        with pytest.raises(GraphStorageException):
            db.store_edges([(0, MAX_VERTEX_ID + 1)])

    def test_bad_policy(self):
        node = SimNode(0, NodeSpec())
        with pytest.raises(ConfigError):
            GrDB(node.disk, fmt=SMALL_FMT, growth_policy="bogus")


def chain_path(db, vertex):
    return db.chain_of(vertex)


class TestDefrag:
    def test_defrag_preserves_contents(self):
        db, _ = make_db(growth_policy="link")
        db.store_edges([(1, x) for x in range(40)])
        before = sorted(db.get_adjacency(1).tolist())
        assert chain_length(db, 1) > 2
        assert defragment_vertex(db, 1)
        assert sorted(db.get_adjacency(1).tolist()) == before
        assert chain_length(db, 1) == 2

    def test_defrag_small_vertex_noop(self):
        db, _ = make_db()
        db.store_edges([(1, 2)])
        assert not defragment_vertex(db, 1)

    def test_defrag_all_known(self):
        db, _ = make_db(growth_policy="link")
        for v in range(5):
            db.store_edges([(v, x) for x in range(10)])
        rewritten = defragment(db)
        assert rewritten == 5
        for v in range(5):
            assert len(db.get_adjacency(v)) == 10
            assert chain_length(db, v) <= 2

    def test_defrag_hub_chains_top_level(self):
        db, _ = make_db(growth_policy="link")
        n = 300  # > top capacity 64: stays a chain, but all at top level
        db.store_edges([(1, x) for x in range(n)])
        defragment_vertex(db, 1)
        assert sorted(db.get_adjacency(1).tolist()) == list(range(n))
        levels = [lvl for lvl, _ in db.chain_of(1)]
        assert levels[0] == 0 and all(lv == 3 for lv in levels[1:])

    def test_defrag_then_append(self):
        db, _ = make_db(growth_policy="link")
        db.store_edges([(1, x) for x in range(40)])
        defragment_vertex(db, 1)
        db.store_edges([(1, 1000)])
        assert 1000 in db.get_adjacency(1).tolist()
        assert len(db.get_adjacency(1)) == 41

    def test_defrag_reads_cheaper(self):
        """Compacted chains need fewer sub-block hops (fewer block reads)."""
        db, node = make_db(growth_policy="link", cache_blocks=0)
        db.store_edges([(1, x) for x in range(60)])
        hops_before = chain_length(db, 1)
        defragment_vertex(db, 1)
        assert chain_length(db, 1) < hops_before


class TestCacheAndCosts:
    def test_cache_disabled_rereads_device(self):
        db0, node0 = make_db(cache_blocks=0)
        dbc, nodec = make_db(cache_blocks=64)
        edges = [(v, x) for v in range(8) for x in range(6)]
        db0.store_edges(edges)
        dbc.store_edges(edges)
        db0.flush()
        dbc.flush()
        t0, tc = node0.clock.now, nodec.clock.now
        for _ in range(5):
            for v in range(8):
                db0.get_adjacency(v)
                dbc.get_adjacency(v)
        uncached_time = node0.clock.now - t0
        cached_time = nodec.clock.now - tc
        assert cached_time < uncached_time

    def test_cache_stats_surface(self):
        db, _ = make_db(cache_blocks=16)
        db.store_edges([(0, 1)])
        db.get_adjacency(0)
        assert db.cache_stats.accesses > 0


class TestModuloIdMap:
    def test_local_dense_layout(self):
        m = ModuloMap(4, 1)
        assert m.to_local(1) == 0
        assert m.to_local(5) == 1
        assert m.to_global(2) == 9
        assert m.owns(5) and not m.owns(4)
        with pytest.raises(ConfigError):
            m.to_local(2)
        with pytest.raises(ConfigError):
            ModuloMap(0, 0)
        with pytest.raises(ConfigError):
            ModuloMap(4, 4)

    def test_grdb_with_modulo_map(self):
        db, _ = make_db(id_map=ModuloMap(4, 1))
        db.store_edges([(1, 100), (5, 200), (9, 300), (1, 101)])
        assert sorted(db.get_adjacency(1).tolist()) == [100, 101]
        assert db.get_adjacency(5).tolist() == [200]
        # Vertices not owned by this partition: empty set, not an error.
        assert db.get_adjacency(2).tolist() == []
        assert db.local_vertices().tolist() == [1, 5, 9]

    def test_grdb_rejects_storing_unowned(self):
        db, _ = make_db(id_map=ModuloMap(4, 1))
        with pytest.raises(ConfigError):
            db.store_edges([(2, 7)])
