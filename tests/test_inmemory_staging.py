"""Array and HashMap stage whole edge chunks and pack them with one stable sort.

The store path appends a validated ``(E, 2)`` chunk; the first read after a
store (or ``finalize_ingest``) packs every chunk into one CSR batch.  This
suite holds that against the per-edge loop it replaced:

* a differential property: a ~10-line reference appends edge by edge into a
  dict of Python lists, reads are interleaved between stores (HashMap grows
  after it has been read, Array is read before it is finalized), and every
  read equals the reference, absent ids included;
* the virtual clock and the counters equal literals pinned on the per-edge
  implementation (``repr`` equality);
* the dense-id guard fires before any dense allocation;
* re-packing is bounded: k windows then a read pack once, and a rebalance
  packs at most once per move on each receiving back-end.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.graphdb.interface import StagedEdges
from repro.graphgen import pubmed_like
from repro.simcluster import NodeSpec, SimNode
from repro.util.errors import GraphStorageException

from .helpers import make_store

BACKENDS = ["Array", "HashMap"]


class PerEdgeReference:
    """The retired store path: one Python list per source, appended edge by edge."""

    def __init__(self):
        self.lists: dict[int, list[int]] = {}

    def store(self, edges) -> None:
        for src, dst in edges:
            self.lists.setdefault(src, []).append(dst)

    def adjacency(self, v: int) -> list[int]:
        return self.lists.get(v, [])


def flat(batches) -> list[tuple[int, list[int]]]:
    return [(v, neighbors.tolist()) for batch in batches for v, neighbors in batch]


def assert_matches(db, ref: PerEdgeReference, probe: list[int]) -> None:
    local = sorted(ref.lists)
    for v in probe:
        assert db.get_adjacency(v).tolist() == ref.adjacency(v)
    assert db.local_vertices().tolist() == local
    assert flat(db.scan_adjacency()) == [(v, ref.lists[v]) for v in local]
    wanted = sorted(set(probe) & set(local))
    assert flat(db.scan_adjacency(probe)) == [(v, ref.lists[v]) for v in wanted]
    fringe = db.expand_fringe(probe)
    assert fringe.tolist() == [u for v in probe for u in ref.adjacency(v)]
    assert db.degree_many(probe).tolist() == [len(ref.adjacency(v)) for v in probe]


# Few sources, so one source recurs across chunks and edges repeat.
_edge = st.tuples(st.integers(0, 12), st.integers(0, 40))
_chunks = st.lists(
    st.tuples(st.lists(_edge, max_size=12), st.booleans()),  # (chunk, read after it)
    max_size=8,
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(chunks=_chunks, probe=st.lists(st.integers(0, 20), max_size=10))
def test_packed_chunks_answer_what_the_per_edge_loop_built(backend, chunks, probe):
    db = make_store(backend, SimNode(0, NodeSpec()))
    ref = PerEdgeReference()
    probe = probe + [13, 41, 10**6]  # never a source
    for chunk, read in chunks:
        db.store_edges(np.array(chunk, dtype=np.int64).reshape(-1, 2))
        ref.store(chunk)
        if read:
            assert_matches(db, ref, probe)
    db.finalize_ingest()
    assert_matches(db, ref, probe)
    if backend == "Array":
        with pytest.raises(GraphStorageException, match="finalized"):
            db.store_edges([[0, 1]])


def test_a_stored_chunk_is_a_copy():
    db = make_store("HashMap", SimNode(0, NodeSpec()))
    edges = np.array([[1, 2], [1, 3]], dtype=np.int64)
    db.store_edges(edges)
    edges[:] = 7  # the caller reuses its buffer
    assert db.get_adjacency(1).tolist() == [2, 3]


# -- the virtual clock and the counters, pinned --------------------------------

_GOLDEN_EDGES = np.concatenate([pubmed_like(300, seed=5), pubmed_like(300, seed=5)[:40]])
_GOLDEN_IDS = np.append(np.arange(0, 320, 3), 10**6)

#: ``(repr(stats), repr(clock.now))`` after the reads that follow chunks 2 and
#: 4 of 5 and after ``finalize_ingest``, recorded on the per-edge staging.
_GOLDEN = {
    "Array": [
        ("GraphDBStats(edges_stored=809, edges_scanned=686, adjacency_requests=216, store_calls=2)",
         "0.0003494800000000001"),
        ("GraphDBStats(edges_stored=1617, edges_scanned=1836, adjacency_requests=432, store_calls=4)",
         "0.0008147400000000005"),
        ("GraphDBStats(edges_stored=2021, edges_scanned=3264, adjacency_requests=648, store_calls=5)",
         "0.0017658700000000014"),
    ],
    "HashMap": [
        ("GraphDBStats(edges_stored=809, edges_scanned=686, adjacency_requests=216, store_calls=2)",
         "0.0006780099999999982"),
        ("GraphDBStats(edges_stored=1617, edges_scanned=1836, adjacency_requests=432, store_calls=4)",
         "0.001645799999999996"),
        ("GraphDBStats(edges_stored=2021, edges_scanned=3264, adjacency_requests=648, store_calls=5)",
         "0.0026984599999999837"),
    ],
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_charges_equal_the_per_edge_staging(backend):
    db = make_store(backend, SimNode(0, NodeSpec()))

    def reads():
        for v in _GOLDEN_IDS.tolist():
            db.get_adjacency(v)
        db.expand_fringe(_GOLDEN_IDS)
        for _ in db.scan_adjacency(_GOLDEN_IDS):
            pass
        db.local_vertices()
        db.degree_many(_GOLDEN_IDS)
        return repr(db.stats), repr(db.clock.now)

    marks = []
    for i, chunk in enumerate(np.array_split(_GOLDEN_EDGES, 5)):
        db.store_edges(chunk)
        if i % 2:
            marks.append(reads())
    db.finalize_ingest()
    marks.append(reads())
    assert marks == _GOLDEN[backend]


# -- the dense-id guard -----------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_huge_id_is_guarded_before_any_dense_allocation(backend):
    big = 200_000_000  # Array's first id past the dense xadj limit
    db = make_store(backend, SimNode(0, NodeSpec()))
    tracemalloc.start()
    try:
        db.store_edges([[big, 1], [2, big], [big, 3]])
        assert db.get_adjacency(big).tolist() == [1, 3]
        assert db.local_vertices().tolist() == [2, big]
        assert flat(db.scan_adjacency([big, 5])) == [(big, [1, 3])]
        if backend == "Array":
            with pytest.raises(GraphStorageException, match="too large"):
                db.finalize_ingest()
        else:
            db.finalize_ingest()
        assert db.get_adjacency(big).tolist() == [1, 3]  # the sparse pack still answers
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


# -- re-packing is bounded ------------------------------------------------------------


@pytest.fixture
def packs(monkeypatch):
    """Every :class:`StagedEdges` that packed, once per pack."""
    seen: list[StagedEdges] = []
    real = StagedEdges._pack

    def counting(self):
        seen.append(self)
        return real(self)

    monkeypatch.setattr(StagedEdges, "_pack", counting)
    return seen


@pytest.mark.parametrize("backend", BACKENDS)
def test_k_windows_then_reads_pack_once(backend, packs):
    db = make_store(backend, SimNode(0, NodeSpec()))
    for chunk in np.array_split(_GOLDEN_EDGES, 8):
        db.store_edges(chunk)
    assert packs == []  # the store path never packs
    db.get_adjacency(3)
    db.local_vertices()
    list(db.scan_adjacency())
    db.expand_fringe(_GOLDEN_IDS)
    db.finalize_ingest()
    assert len(packs) == 1


def test_a_rebalance_packs_at_most_once_per_move_on_each_receiver(packs):
    cfg = MSSGConfig(num_backends=4, num_frontends=1, backend="HashMap", replication=2)
    edges = pubmed_like(400, seed=3)
    with MSSG(cfg) as mssg:
        mssg.ingest(edges)
        healthy = mssg.query_bfs(0, 350).result
        # A HashMap back-end owns no device: give back-end 0 a failed one.
        mssg.cluster.nodes[1].disk("scratch").failed = True
        chains = [list(mssg.declusterer.replica_chain(u)) for u in range(4)]
        del packs[:]
        rb = mssg.rebalance()
        assert rb.dead_backends == (0,) and rb.entries_copied > 0
        received = {q: 0 for q in range(4)}
        for u in range(4):
            for q in mssg.declusterer.replica_chain(u):
                received[q] += q not in chains[u]
        assert sum(received.values()) == rb.copies_restored
        for q, db in enumerate(mssg.dbs):
            assert sum(s is db._staged for s in packs) <= received[q]
        assert mssg.query_bfs(0, 350).result == healthy
