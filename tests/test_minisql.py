"""Tests for MiniSQL: the heap file and the edges table's prepared plans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcluster import BlockDevice, CpuProfile, NodeSpec, SimNode
from repro.storage import EdgesTable, HeapFile, PagedFile
from repro.util import StorageEngineError

from .helpers import make_store


def make_table(cpu=None):
    node = SimNode(0, NodeSpec())
    return EdgesTable(node.disk, node.clock, cpu or node.spec.cpu), node


class TestHeapFile:
    def make(self, page_size=256):
        return HeapFile(PagedFile(BlockDevice(), page_size))

    def test_insert_read(self):
        h = self.make()
        rid = h.insert(b"hello")
        assert h.read(rid) == b"hello"

    def test_rows_span_pages(self):
        h = self.make(page_size=128)
        rids = [h.insert(b"x" * 50) for _ in range(10)]
        assert len({r[0] for r in rids}) > 1  # multiple pages used
        assert all(h.read(r) == b"x" * 50 for r in rids)

    def test_oversized_row(self):
        h = self.make(page_size=128)
        with pytest.raises(StorageEngineError):
            h.insert(b"y" * 500)

    def test_delete_and_scan(self):
        h = self.make()
        r1 = h.insert(b"a")
        r2 = h.insert(b"b")
        h.delete(r1)
        assert [payload for _, payload in h.scan()] == [b"b"]
        assert h.count() == 1
        with pytest.raises(StorageEngineError):
            h.read(r1)
        with pytest.raises(StorageEngineError):
            h.delete(r1)

    def test_update_in_place_same_length(self):
        h = self.make()
        rid = h.insert(b"aaaa")
        assert h.update_in_place(rid, b"bbbb")
        assert h.read(rid) == b"bbbb"
        assert not h.update_in_place(rid, b"longer-now")
        assert h.read(rid) == b"bbbb"


def rids(table, src):
    """Row ids the index holds for ``src``, in chunk order (key bytes 16..32)."""
    prefix = (src + (1 << 63)).to_bytes(8, "big")
    return [key[16:] for key in table.index.keys() if key.startswith(prefix)]


class TestExecutor:
    def test_create_insert_select(self):
        table, node = make_table()
        assert table.statements_executed == 2  # CREATE TABLE + CREATE INDEX
        assert table.heap.pages.device is node.disk("tbl_edges_heap")
        assert table.heap.page_size == 16384
        assert table.index.page_size == 4096
        assert table.index.pages.device is node.disk("tbl_edges_idx_src_chunk")
        table.insert(1, 0, b"one")
        table.insert(2, 0, b"two")
        assert table.point_probe(2, 0) == [b"two"]
        assert table.ordered_scan() == [(1, b"one"), (2, b"two")]
        assert table.point_probe(3, 0) == [] and table.tail_probe(3) is None

    def test_blob_roundtrip(self):
        table, _ = make_table()
        blob = bytes(range(256)) * 8
        table.insert(7, 0, blob)
        assert table.point_probe(7, 0) == [blob]
        assert table.vertex_probe(7) == [blob]

    def test_index_used_for_lookup(self):
        """Each probe plan reads at most two heap pages per row it returns."""
        table, node = make_table()
        for i in range(200):
            table.insert(i, 0, bytes(600))
            table.insert(i, 1, bytes(8 * (i % 7)))
        heap = node.disk("tbl_edges_heap").stats
        assert table.heap.pages.npages > 4
        for plan, rows in (
            (lambda: table.point_probe(150, 1), 1),
            (lambda: table.vertex_probe(150), 2),
            (lambda: table.tail_probe(150), 2),
        ):
            before = heap.reads
            plan()
            assert heap.reads - before <= 2 * rows  # index probe, not a scan

    def test_scans_read_heap_once(self):
        table, node = make_table()
        for i in range(120):
            table.insert(i, 0, bytes(400))
        heap = node.disk("tbl_edges_heap").stats
        for plan in (table.ordered_scan, lambda: table.range_scan(10, 20)):
            before = heap.reads
            plan()
            assert heap.reads - before == table.heap.pages.npages > 1

    def test_composite_index_prefix(self):
        table, _ = make_table()
        for v in range(10):
            for c in range(3):
                table.insert(v, c, b"d%d%d" % (v, c))
        assert table.vertex_probe(4) == [b"d40", b"d41", b"d42"]
        assert table.point_probe(4, 1) == [b"d41"]
        assert table.tail_probe(4) == (2, b"d42")
        assert table.range_scan(3, 4) == [(3, b"d30"), (3, b"d31"), (3, b"d32"),
                                         (4, b"d40"), (4, b"d41"), (4, b"d42")]

    def test_index_backfill(self):
        table, node = make_table()
        table.insert(3, 0, b"x")
        fresh = SimNode(1, NodeSpec())

        def provider(name):  # the old heap beside an empty index device
            return node.disk(name) if name == "tbl_edges_heap" else fresh.disk(name)

        reopened = EdgesTable(provider, node.clock, node.spec.cpu)  # backfills existing rows
        assert reopened.vertex_probe(3) == [b"x"]

    def test_range_predicates_without_index(self):
        table, _ = make_table()
        for i in range(10):
            table.insert(i, 0, b"%d" % i)
        before = table.index.cache.stats.accesses
        assert table.range_scan(3, 5) == [(3, b"3"), (4, b"4"), (5, b"5")]
        assert table.range_scan(7, 6) == []
        assert table.index.cache.stats.accesses == before  # a heap pass, no index page

    def test_update(self):
        table, _ = make_table()
        table.insert(1, 0, b"x")
        before = rids(table, 1)
        table.update(1, 0, b"y")  # same length: rewritten in place
        assert rids(table, 1) == before
        assert table.point_probe(1, 0) == [b"y"]

    def test_update_changes_row_length(self):
        table, _ = make_table()
        table.insert(1, 0, b"x")
        first = rids(table, 1)
        table.update(1, 0, b"a much longer blob")
        moved = rids(table, 1)
        table.update(1, 0, b"z")
        assert first != moved != rids(table, 1)  # each length change relocates
        assert table.point_probe(1, 0) == [b"z"]
        assert table.ordered_scan() == [(1, b"z")]  # one row: the old ones are gone

    def test_negative_ints_ordered_in_index(self):
        table, _ = make_table()
        for v in [5, -3, 0, -100, 1 << 40, (1 << 63) - 1, -(1 << 63)]:
            table.insert(v, 0, b"%d" % v)
        assert table.vertex_probe(-3) == [b"-3"]
        want = sorted([5, -3, 0, -100, 1 << 40, (1 << 63) - 1, -(1 << 63)])
        assert [src for src, _ in table.ordered_scan()] == want
        assert next(table.index.keys())[:8] == bytes(8)  # -2^63 flips to 0

    def test_statement_overhead_charged(self):
        cpu = CpuProfile(sql_statement_seconds=0.001)
        table, node = make_table(cpu)
        assert node.clock.now >= 0.002
        calls = [
            lambda: table.insert(1, 0, b"a"),
            lambda: table.update(1, 0, b"b"),
            lambda: table.tail_probe(1),
            lambda: table.point_probe(1, 0),
            lambda: table.vertex_probe(1),
            lambda: table.range_scan(0, 1),
            table.ordered_scan,
        ]
        for call in calls:
            n, t = table.statements_executed, node.clock.now
            call()
            assert table.statements_executed == n + 1
            assert node.clock.now - t >= 0.001


# -- the plans against a dict-of-chunk-lists reference ------------------------

IDS = [0, 1, 7, (1 << 31) - 1, 1 << 31, (1 << 31) + 5, 1 << 40, (1 << 63) - 2, (1 << 63) - 1]
OPS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(IDS), st.integers(0, (1 << 63) - 1)),
        st.sampled_from(["new-chunk", "rewrite"]),
        st.integers(0, 1200),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(ops=OPS, data=st.data())
def test_plans_match_reference(ops, data):
    table, _ = make_table()
    ref: dict[int, list[bytes]] = {}
    for n, (src, op, size) in enumerate(ops):
        blob = bytes([n % 251]) * size
        chunks = ref.setdefault(src, [])
        if op == "rewrite" and chunks:
            chunk = data.draw(st.integers(0, len(chunks) - 1))
            table.update(src, chunk, blob)  # a size change relocates the row
            chunks[chunk] = blob
        else:
            table.insert(src, len(chunks), blob)
            chunks.append(blob)
    rows = [(src, blob) for src in sorted(ref) for blob in ref[src]]
    assert table.ordered_scan() == rows
    assert len(table.index) == len(rows)
    lo, hi = sorted(data.draw(st.sampled_from(sorted(ref))) for _ in range(2))
    assert table.range_scan(lo, hi) == [r for r in rows if lo <= r[0] <= hi]
    for src, chunks in ref.items():
        assert table.vertex_probe(src) == chunks
        assert table.tail_probe(src) == (len(chunks) - 1, chunks[-1])
        for c, blob in enumerate(chunks):
            assert table.point_probe(src, c) == [blob]
    absent = data.draw(st.integers(0, (1 << 63) - 1).filter(lambda v: v not in ref))
    assert table.tail_probe(absent) is None and table.vertex_probe(absent) == []


# -- statements per GraphDB call ----------------------------------------------


def test_statements_per_graphdb_call():
    """Each ``GraphDB`` call sends the statements the MySQL backend always sent."""
    db = make_store("MySQL", SimNode(0, NodeSpec()))
    hub = make_store("MySQL", SimNode(1, NodeSpec()))

    def sent(store, call):
        before = store.db.statements_executed
        call()
        return store.db.statements_executed - before

    def edges(src, dsts):
        return np.column_stack((np.full(len(dsts), src), dsts))

    assert db.db.statements_executed == 2
    assert sent(db, lambda: db.store_edges(edges(1, [2]))) == 2  # tail probe + INSERT
    assert sent(db, lambda: db.store_edges(edges(1, [3]))) == 2  # point probe + UPDATE
    assert sent(db, lambda: db.store_edges(np.array([[5, 3], [5, 4], [6, 1]]))) == 4
    # 1 500 entries: tail probe + two INSERTs; then +600 fill chunk 1 and open chunk 2
    assert sent(hub, lambda: hub.store_edges(edges(9, np.arange(1500)))) == 3
    assert sent(hub, lambda: hub.store_edges(edges(9, np.arange(600)))) == 3
    assert sent(db, lambda: db.get_adjacency(1)) == 1
    assert sent(db, lambda: db.get_adjacency(77)) == 1
    fringe = np.array([1, 1, 5, 77])
    assert sent(db, lambda: db.expand_fringe(fringe)) == 3  # one per distinct id
    db.batch_io = False
    assert sent(db, lambda: db.expand_fringe(fringe)) == 4  # one per entry
    assert sent(db, lambda: list(db.scan_adjacency())) == 1
    assert sent(db, lambda: list(db.scan_adjacency([1, 6]))) == 1
    assert sent(db, lambda: list(db.scan_adjacency([]))) == 0
    assert sent(db, lambda: db.local_vertices()) == 0  # the RAM census
