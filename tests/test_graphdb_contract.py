"""Cross-backend contract tests: all six GraphDBs implement Listing 3.1
identically (same answers, different costs)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphdb import (
    BACKENDS,
    OP_ALL,
    OP_EQ,
    OP_GT,
    OP_LT,
    OP_NEQ,
    UNSET,
)
from repro.simcluster import NodeSpec, SimNode
from repro.util import GraphStorageException

from .helpers import make_store


def build(backend, **kw):
    node = SimNode(0, NodeSpec())
    return make_store(backend, node, **kw), node


def store_and_finalize(db, edges):
    db.store_edges(np.asarray(edges, dtype=np.int64))
    db.finalize_ingest()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


SAMPLE_EDGES = [
    (0, 1), (0, 2), (0, 3),
    (1, 0), (1, 2),
    (2, 0), (2, 1),
    (3, 0),
    (7, 9),
]


class TestContract:
    def test_adjacency_roundtrip(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        assert sorted(db.get_adjacency(0).tolist()) == [1, 2, 3]
        assert sorted(db.get_adjacency(1).tolist()) == [0, 2]
        assert db.get_adjacency(3).tolist() == [0]
        assert db.get_adjacency(7).tolist() == [9]

    def test_missing_vertex_returns_empty(self, backend):
        """The algorithmic keystone: non-local vertices yield the empty set."""
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        assert db.get_adjacency(999).tolist() == []
        assert db.get_adjacency(4).tolist() == []

    def test_empty_store_call(self, backend):
        db, _ = build(backend)
        db.store_edges(np.zeros((0, 2), dtype=np.int64))
        db.finalize_ingest()
        assert db.get_adjacency(0).tolist() == []

    def test_incremental_batches(self, backend):
        if backend == "Array":
            pytest.skip("Array does not support dynamic growth (paper §4.1.1)")
        db, _ = build(backend)
        db.store_edges([(5, 1)])
        db.store_edges([(5, 2), (5, 3)])
        db.store_edges([(6, 5), (5, 4)])
        db.finalize_ingest()
        assert sorted(db.get_adjacency(5).tolist()) == [1, 2, 3, 4]
        assert db.get_adjacency(6).tolist() == [5]

    def test_metadata_roundtrip(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        assert db.get_metadata(0) == UNSET
        db.set_metadata(0, 3)
        db.set_metadata(2, -1)
        assert db.get_metadata(0) == 3
        assert db.get_metadata(2) == -1

    def test_metadata_filtered_adjacency(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        db.set_metadata(1, 5)
        db.set_metadata(2, 7)
        # neighbor 3 stays UNSET
        out = db.get_adjacency_list_using_metadata(0, 0, OP_ALL)
        assert sorted(out.tolist()) == [1, 2, 3]
        assert db.get_adjacency_list_using_metadata(0, 5, OP_EQ).tolist() == [1]
        out = db.get_adjacency_list_using_metadata(0, 5, OP_NEQ)
        assert sorted(out.tolist()) == [2, 3]
        out = db.get_adjacency_list_using_metadata(0, 5, OP_GT)
        assert sorted(out.tolist()) == [2, 3]  # 7 and UNSET are > 5
        assert db.get_adjacency_list_using_metadata(0, 6, OP_LT).tolist() == [1]

    def test_invalid_operation_rejected(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        with pytest.raises(GraphStorageException):
            db.get_adjacency_list_using_metadata(0, 0, 42)

    def test_negative_vertex_rejected(self, backend):
        db, _ = build(backend)
        with pytest.raises(GraphStorageException):
            db.store_edges([(0, -1)])

    def test_expand_fringe_matches_individual(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        batch = db.expand_fringe([0, 1, 7])
        assert batch.dtype == np.int64
        assert sorted(batch.tolist()) == sorted([1, 2, 3, 0, 2, 9])

    @pytest.mark.parametrize("finalized", [False, True])
    def test_ids_outside_the_store_expand_to_nothing(self, backend, finalized):
        """Past-the-end, far, INT64_MAX and negative ids read as non-local."""
        db, _ = build(backend)
        db.store_edges(np.asarray(SAMPLE_EDGES, dtype=np.int64))
        if finalized:
            db.finalize_ingest()
        outside = [8, 999, 2**63 - 1, -1]
        for v in outside:
            assert db.get_adjacency(v).tolist() == []
        requests = db.stats.adjacency_requests
        assert db.expand_fringe(outside).tolist() == []
        assert db.expand_fringe(outside + [7]).tolist() == [9]
        assert db.stats.adjacency_requests == requests + 2 * len(outside) + 1

    def test_expand_empty_fringe(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        batch = db.expand_fringe(np.empty(0, dtype=np.int64))
        assert len(batch) == 0 and batch.dtype == np.int64

    def test_stats_counting(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        db.get_adjacency(0)
        assert db.stats.edges_stored == len(SAMPLE_EDGES)
        assert db.stats.adjacency_requests >= 1
        assert db.stats.edges_scanned >= 3

    def test_clock_charged_on_access(self, backend):
        db, node = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        before = node.clock.now
        db.get_adjacency(0)
        assert node.clock.now > before

    def test_duplicate_edges_preserved(self, backend):
        """GraphDBs store what they are given; dedup is the generator's job."""
        db, _ = build(backend)
        store_and_finalize(db, [(1, 2), (1, 2)])
        assert db.get_adjacency(1).tolist() == [2, 2]

    def test_flush_is_safe(self, backend):
        db, _ = build(backend)
        store_and_finalize(db, SAMPLE_EDGES)
        db.flush()
        db.close()
        assert sorted(db.get_adjacency(0).tolist()) == [1, 2, 3]


class TestHighDegree:
    """Hubs exercise chunking (BDB/MySQL) and multi-level chains (grDB)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hub_vertex(self, backend):
        db, _ = build(backend)
        n = 2500  # > 2 chunks of 1024, > several grDB levels
        edges = np.column_stack([np.zeros(n, dtype=np.int64), np.arange(1, n + 1)])
        # Feed in uneven batches to exercise tail appends.
        store_and_finalize(db, edges[:700])
        if backend != "Array":
            db.store_edges(edges[700:1500])
            db.store_edges(edges[1500:])
        else:
            db, _ = build(backend)
            store_and_finalize(db, edges)
        got = db.get_adjacency(0)
        assert len(got) == n
        assert sorted(got.tolist()) == list(range(1, n + 1))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=150
    ),
    backend_name=st.sampled_from(BACKENDS),
)
def test_property_all_backends_agree_with_dict_model(edges, backend_name):
    """Property: every backend returns exactly the stored multiset per vertex."""
    db, _ = build(backend_name)
    store_and_finalize(db, edges)
    model: dict[int, list[int]] = {}
    for u, v in edges:
        model.setdefault(u, []).append(v)
    for u in range(31):
        assert sorted(db.get_adjacency(u).tolist()) == sorted(model.get(u, []))
