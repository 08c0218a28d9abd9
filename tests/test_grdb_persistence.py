"""Tests for grDB persistence (superblock + reopen)."""

import numpy as np
import pytest

from repro.graphdb import GrDB, GrDBFormat, ModuloMap
from repro.simcluster import NodeSpec, SimNode
from repro.util import GraphStorageException

from .helpers import census

FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
)


def make_node():
    return SimNode(0, NodeSpec())


class TestPersistence:
    def test_reopen_preserves_adjacency(self):
        node = make_node()
        db = GrDB(node.disk, fmt=FMT, clock=node.clock, cpu=node.spec.cpu)
        rng = np.random.default_rng(3)
        edges = np.column_stack(
            [rng.integers(0, 30, 300), rng.integers(0, 500, 300)]
        ).astype(np.int64)
        db.store_edges(edges)
        db.flush()

        # Reopen on the same devices: a brand-new GrDB object.
        db2 = GrDB(node.disk, fmt=FMT, clock=node.clock, cpu=node.spec.cpu)
        assert census(db2) == census(db)
        for v in range(30):
            assert sorted(db2.get_adjacency(v).tolist()) == sorted(
                db.get_adjacency(v).tolist()
            )

    def test_reopen_preserves_allocator_state(self):
        node = make_node()
        db = GrDB(node.disk, fmt=FMT, clock=node.clock)
        db.store_edges([(0, x) for x in range(20)])  # spans several levels
        before = [db.storage._next_subblock[lv] for lv in range(FMT.num_levels)]
        db.flush()
        db2 = GrDB(node.disk, fmt=FMT, clock=node.clock)
        assert [db2.storage._next_subblock[lv] for lv in range(FMT.num_levels)] == before

    def test_reopen_can_continue_ingesting(self):
        node = make_node()
        db = GrDB(node.disk, fmt=FMT, clock=node.clock)
        db.store_edges([(5, x) for x in range(10)])
        db.flush()
        db2 = GrDB(node.disk, fmt=FMT, clock=node.clock)
        db2.store_edges([(5, 99), (6, 1)])
        got = db2.get_adjacency(5).tolist()
        assert sorted(got) == sorted(list(range(10)) + [99])
        assert db2.get_adjacency(6).tolist() == [1]

    def test_reopen_rebuilds_known_vertices(self):
        node = make_node()
        db = GrDB(node.disk, fmt=FMT, clock=node.clock)
        db.store_edges([(3, 1), (7, 2), (12, 3)])
        db.flush()
        db2 = GrDB(node.disk, fmt=FMT, clock=node.clock)
        assert db2.local_vertices().tolist() == [3, 7, 12]

    def test_reopen_with_id_map(self):
        node = make_node()
        id_map = ModuloMap(4, 1)
        db = GrDB(node.disk, fmt=FMT, clock=node.clock, id_map=id_map)
        db.store_edges([(1, 10), (5, 20)])
        db.flush()
        db2 = GrDB(node.disk, fmt=FMT, clock=node.clock, id_map=ModuloMap(4, 1))
        assert db2.local_vertices().tolist() == [1, 5]
        assert db2.get_adjacency(5).tolist() == [20]

    def test_format_mismatch_rejected(self):
        node = make_node()
        db = GrDB(node.disk, fmt=FMT, clock=node.clock)
        db.store_edges([(0, 1)])
        db.flush()
        other = GrDBFormat(
            capacities=(4, 8), block_sizes=(256, 256), max_file_bytes=4096
        )
        with pytest.raises(GraphStorageException):
            GrDB(node.disk, fmt=other, clock=node.clock)

    def test_fresh_instance_not_restored(self):
        db = GrDB(make_node().disk, fmt=FMT)
        assert census(db) == ([], []) and db.stats.edges_stored == 0

    def test_corrupt_superblock_detected(self):
        node = make_node()
        db = GrDB(node.disk, fmt=FMT, clock=node.clock)
        db.store_edges([(0, 1)])
        db.flush()
        super_dev = node.disk("grdb_super")
        super_dev.write(10, b"\xde\xad")  # flip bytes inside the body
        with pytest.raises(GraphStorageException):
            GrDB(node.disk, fmt=FMT, clock=node.clock)

    def test_restore_discards_cached_blocks(self):
        """``restore()`` rewinds the storage to the persisted image; blocks
        cached since the flush (dirty ones especially) describe the
        pre-restore state and must be dropped, not served or flushed."""
        from repro.graphdb.grdb.storage import GrDBStorage

        node = make_node()
        st = GrDBStorage(FMT, node.disk, cache_blocks=64)
        sub = FMT.subblock_bytes(0)
        st.write_subblock(0, 0, b"\x01" * sub)
        st.flush()  # persists the block and the superblock
        st.write_subblock(0, 0, b"\x02" * sub)  # dirty, cache-only
        assert st.restore()
        # The cached post-flush bytes must be gone: reads see the image...
        assert st.read_subblock(0, 0) == b"\x01" * sub
        # ...and a later flush must not resurrect the discarded write.
        st.flush()
        st.cache.drop()
        assert st.read_subblock(0, 0) == b"\x01" * sub
