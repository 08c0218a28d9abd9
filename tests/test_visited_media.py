"""The dense level array answers exactly what the dict does, where it is used.

``visited="memory"`` is a dense resident int32 array where the service knows
an id space that bounds the store and that space is dense (no more ids than
ingested endpoints), and a dict everywhere else.  Neither charges virtual
time, so the choice must move nothing but the wall clock:

* a differential property: random ``set`` / ``set_many`` / ``unvisited`` /
  ``unvisited_local`` / ``get`` sequences over the id space give identical
  answers from the dict (the reference), the dense array, the paged external
  store and the type lens with every code allowed;
* every field of every ``query_bfs`` / ``query_many`` report equals a run
  whose memory structure is pinned to the dict, on all six backends with the
  hybrid on and off under both presets, and across a streaming drain whose
  batches raise the largest id;
* a sparse id space (an id far past the ingested endpoints) keeps the dict,
  and a reopened store (ids the deployment never ingested) sizes its id
  space from what its stores hold at open and picks what a fresh deployment
  picks; both answer what a fresh search answers;
* an external map's scratch device lives exactly as long as its search,
  solo or drained, finished or failed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MSSG, Features, MSSGConfig
from repro.bfs import bfs_distance, sample_queries_by_distance
from repro.graphdb.metadata import UNSET, ExternalMetadata, InMemoryMetadata, PinnedMetadata
from repro.graphdb.registry import BACKENDS
from repro.graphgen import CSRGraph, pubmed_like
from repro.services.analyses import TypeLens
from repro.simcluster import FaultPlan, SimNode
from repro.simcluster.disk import BlockDevice
from repro.util.errors import DeviceFailedError

N = 24
_id = st.integers(0, N - 1)
_ids = st.lists(_id, max_size=12)
_level = st.integers(0, 64)
_op = st.one_of(
    st.tuples(st.just("set"), _id, _level),
    st.tuples(st.just("set_many"), _ids, _level),
    st.tuples(st.just("unvisited"), _ids),
    st.tuples(st.just("unvisited_local"), _ids),
    st.tuples(st.just("get"), _id),
    st.tuples(st.just("visited"), _id),
)


def _apply(visited, op):
    name, *args = op
    if name == "unvisited_local":
        ids = args[0]
        return visited.unvisited_local(lambda: np.array(ids, dtype=np.int64)).tolist()
    if name == "visited":
        return visited.get(*args) != UNSET
    answer = getattr(visited, name)(*args)
    return answer.tolist() if isinstance(answer, np.ndarray) else answer


def _every_code_allowed():
    """A type lens over a dict whose every vertex has an allowed type."""
    types = InMemoryMetadata()
    for v in range(N):
        types.set(v, v % 3)
    return TypeLens(InMemoryMetadata(), types, [0, 1, 2])


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=30))
def test_every_medium_answers_what_the_dict_answers(ops):
    reference = InMemoryMetadata()
    media = [PinnedMetadata(N), ExternalMetadata(BlockDevice(), cache_pages=1)]
    media.append(_every_code_allowed())
    for op in ops:
        want = _apply(reference, op)
        for visited in media:
            assert _apply(visited, op) == want, (type(visited).__name__, op)


# -- the dense store on its own --------------------------------------------------


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

    def test_level_map_semantics(self):
        levels = PinnedMetadata(10)
        assert levels.get(4) == UNSET
        levels.set_many([4, 5], 2)
        assert levels.get(4) != UNSET and levels.get(5) == 2
        assert levels.unvisited(np.arange(10)).tolist() == [0, 1, 2, 3, 6, 7, 8, 9]
        assert levels.unvisited_local(lambda: np.arange(6)).tolist() == [0, 1, 2, 3]
        levels.clear()
        assert levels.unvisited_local(lambda: np.arange(6)).tolist() == list(range(6))


# -- the façade: dense vs a run pinned to the dict -----------------------------

EDGES = pubmed_like(150, seed=1)
TOP = int(EDGES.max())
QUERIES = [(s, d) for s, d, _ in sample_queries_by_distance(CSRGraph.from_edges(EDGES), 6, seed=2)]
PAIRS = QUERIES + [(TOP + 1000, QUERIES[0][1]), (-5, QUERIES[0][1]), (QUERIES[0][0], TOP + 1000)]


def _deploy(backend, preset=Features.production, storage_dir=None, **features):
    return MSSG(
        MSSGConfig(
            num_backends=3,
            num_frontends=1,
            backend=backend,
            cache_blocks=4,
            storage_dir=storage_dir,
            features=dataclasses.replace(preset(), **features),
        )
    )


def _media(mssg, pin_dict=False):
    """Record the memory structures ``mssg`` builds; with ``pin_dict`` build
    the dict every time, as the service did before it had a dense array."""
    seen = set()
    make = mssg.queries._make_visited

    def made(ctx, kind, seq):
        visited = InMemoryMetadata() if pin_dict and kind == "memory" else make(ctx, kind, seq)
        seen.add(type(visited).__name__)
        return visited

    mssg.queries._make_visited = made
    return seen


def _run(mssg, direction_opt):
    solo = [repr(mssg.query_bfs(s, d, direction_opt=direction_opt)) for s, d in PAIRS]
    solo.append(repr(mssg.query_bfs(*PAIRS[0], pipelined=True, direction_opt=direction_opt)))
    drained = mssg.query_many(PAIRS, direction_opt=direction_opt, max_inflight=3)
    return solo, repr(drained)


@pytest.mark.parametrize("preset", [Features.production, Features.paper], ids=["prod", "paper"])
@pytest.mark.parametrize("direction_opt", [True, False], ids=["hybrid", "top-down"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_reports_equal_a_run_pinned_to_the_dict(backend, direction_opt, preset):
    with _deploy(backend, preset) as dense, _deploy(backend, preset) as ref:
        dense_media, ref_media = _media(dense), _media(ref, pin_dict=True)
        for mssg in (dense, ref):
            mssg.ingest(EDGES)
        assert _run(dense, direction_opt) == _run(ref, direction_opt)
        assert dense_media == {"PinnedMetadata"} and ref_media == {"InMemoryMetadata"}


@pytest.mark.parametrize("backend", ["Array", "StreamDB", "grDB"])
def test_a_streaming_drain_that_raises_the_max_id_equals_the_dict(backend):
    # Batches carry ids past everything ingested before the drain: the id
    # space grows before admission, so each dense array covers them.
    grown = EDGES + TOP + 1  # a second, disjoint copy of the graph
    bridge = np.array([[QUERIES[0][0], TOP + 1 + QUERIES[0][1]]])
    batches = [grown[: len(grown) // 2], np.vstack([grown[len(grown) // 2 :], bridge])]
    pairs = PAIRS + [(QUERIES[0][0], TOP + 1 + QUERIES[1][1]), (TOP + 1, TOP + 2)]
    reports = []
    for pin_dict in (False, True):
        with _deploy(backend, streaming=True) as mssg:
            media = _media(mssg, pin_dict)
            mssg.ingest_stream(EDGES)
            drained = mssg.query_many(pairs, stream_batches=batches, max_inflight=2)
            assert mssg.queries.num_vertices == 2 * (TOP + 1)
            reports.append(repr(drained))
            assert media == {"InMemoryMetadata" if pin_dict else "PinnedMetadata"}
    assert reports[0] == reports[1]


# -- where the dict stays ------------------------------------------------------


@pytest.mark.parametrize("far", [200_000_000, 1 << 40], ids=["2e8", "2^40"])
@pytest.mark.parametrize("backend", ["HashMap", "StreamDB"])
def test_a_sparse_id_space_keeps_the_dict(backend, far):
    # One id far past the rest: a dense array would be 4 * far bytes per
    # query and rank (4 TiB at 2^40), where the dict holds the few touched.
    # The exhaustive searches run top-down: a pull level's fringe bitmap is
    # sized from the id space too (n / 8 bytes), a separate boundary.
    source = QUERIES[0][0]
    with _deploy(backend) as mssg:
        media = _media(mssg)
        mssg.ingest(np.vstack([EDGES, [[source, far]]]))
        assert mssg.queries.num_vertices == far + 1
        assert mssg.query_bfs(source, far).result == 1
        assert mssg.query_bfs(far, far + 1, direction_opt=False).result is None
        drained = mssg.query_many([(source, far), (far, far + 1)], direction_opt=False)
        assert [r.result for r in drained.queries] == [1, None]
        assert media == {"InMemoryMetadata"}


def test_the_dense_array_needs_no_more_ids_than_endpoints():
    with _deploy("HashMap") as dense, _deploy("HashMap") as sparse:
        kinds = _media(dense), _media(sparse)
        dense.ingest(np.array([[0, 1], [2, 3]]))  # 4 ids, 4 endpoints
        sparse.ingest(np.array([[0, 1], [2, 4]]))  # 5 ids, 4 endpoints
        assert dense.query_bfs(0, 1).result == sparse.query_bfs(0, 1).result == 1
        assert kinds == ({"PinnedMetadata"}, {"InMemoryMetadata"})


@pytest.mark.parametrize("backend", ["grDB", "StreamDB"])
def test_a_reopened_store_sizes_its_id_space_like_a_fresh_one(tmp_path, backend):
    # The base holds ids 0..299; the unfolded deltas recovered on reopen hold
    # only 0..2.  The id space comes from the census each store rebuilds at
    # open — a dense array sized from the deltas alone would drop every mark
    # at or above 3 — and the late batch, inside it, leaves it as it is.
    edges = pubmed_like(300, seed=1)
    delta, late = np.array([[0, 1], [1, 2]]), np.array([[3, 4]])
    top = int(edges.max())
    graph = CSRGraph.from_edges(np.vstack([edges, delta, late]))
    pairs = [(top, 5), (5, top), (0, top - 1), (top, 10**6)]
    with _deploy(backend, streaming=True) as fresh:
        fresh_media = _media(fresh)
        fresh.ingest(edges)
        fresh.ingest_stream(delta)
        fresh.ingest_stream(late)
        want = {
            direction_opt: [fresh.query_bfs(s, d, direction_opt=direction_opt) for s, d in pairs]
            for direction_opt in (False, True)
        }
    assert [r.result for r in want[False][:3]] == [
        bfs_distance(graph, s, d) for s, d in pairs[:3]
    ]
    with _deploy(backend, storage_dir=str(tmp_path), streaming=True) as first:
        first.ingest(edges)
        first.ingest_stream(delta)
    with _deploy(backend, storage_dir=str(tmp_path), streaming=True) as reopened:
        media = _media(reopened)
        assert reopened.queries.num_vertices == top + 1
        reopened.ingest_stream(late)
        assert reopened.queries.num_vertices == top + 1
        for direction_opt in (False, True):
            got = [reopened.query_bfs(s, d, direction_opt=direction_opt) for s, d in pairs]
            assert [(r.result, r.levels) for r in got] == [
                (r.result, r.levels) for r in want[direction_opt]
            ]
        assert media == fresh_media


# -- an external map's scratch device lives as long as its search ---------------


def _scratch_deployment(root):
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 2000, size=(8000, 2))
    mssg = MSSG(
        MSSGConfig(num_backends=2, num_frontends=1, backend="grDB", storage_dir=str(root))
    )
    mssg.ingest(edges)
    pairs = [(int(s), int(d)) for s, d in zip(edges[:4, 0], edges[4:8, 1])]
    return mssg, pairs


def _devices_and_files(mssg, root):
    names = [sorted(node._disks) for node in mssg.cluster.nodes]
    return names, sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _search(mssg, pairs, drained):
    if drained:
        return mssg.query_many(pairs, visited="external").queries
    return [mssg.query_bfs(s, d, visited="external") for s, d in pairs]


@pytest.mark.parametrize("drained", [False, True], ids=["solo", "query_many"])
def test_external_searches_leave_no_scratch_device_behind(tmp_path, drained, monkeypatch):
    drops = []
    drop_disk = SimNode.drop_disk

    def timed_drop(node, name):
        start = node.clock.now
        drop_disk(node, name)
        drops.append(node.clock.now - start)

    monkeypatch.setattr(SimNode, "drop_disk", timed_drop)
    mssg, pairs = _scratch_deployment(tmp_path)
    with mssg:
        before = _devices_and_files(mssg, tmp_path), mssg.scrub(repair=False).frames_scanned
        _search(mssg, pairs, drained)
        after = _devices_and_files(mssg, tmp_path), mssg.scrub(repair=False).frames_scanned
    assert after == before
    assert drops == [0.0] * (2 * len(pairs))  # one per back-end and search, free


@pytest.mark.parametrize("drained", [False, True], ids=["solo", "query_many"])
def test_a_failed_external_search_releases_its_scratch_device(tmp_path, drained):
    mssg, pairs = _scratch_deployment(tmp_path)
    with mssg:
        before = _devices_and_files(mssg, tmp_path)
        span = max(report.seconds for report in _search(mssg, pairs, drained))
        # Failover off: a back-end dies mid-search and its device error ends
        # the run, drained searches still suspended on the failing rank.
        mssg.cluster.install_fault_plan(FaultPlan.kill_node(2, at_time=span / 2))
        with pytest.raises(DeviceFailedError) as failure:
            _search(mssg, pairs, drained)
        assert failure.value.__traceback__ is not None  # held, and holding no device
        assert _devices_and_files(mssg, tmp_path) == before
