"""Bulk adjacency is a CSR batch: the contract, pinned from outside.

``GraphDB.scan_adjacency`` yields :class:`AdjacencyBatch` values and its
four consumers (the claim scan, the stream overlay, the shared-scan board,
the vertex-program scatter) do array work per batch.  This suite holds the
per-vertex behaviour they replaced as the reference:

* the array-shaped claim step equals the per-vertex claim loop;
* every backend's batches flatten to the per-vertex sequence, base list
  first, then overlay entries, in the documented vertex order;
* a storage walk that faults hands out what it walked before it raises;
* the consolidated overlay view equals per-batch lookups, is pinned to its
  snapshot, and is dropped when the batch list changes;
* the shared-board plan and the unshared plan serve the same lists;
* and a call-count guard: one ``Bitset.get_many`` per batch, never one per
  candidate vertex.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.bfs.direction import _adjacency_source, _claim_batch
from repro.experiments.harness import scaled_grdb_format
from repro.graphdb import BACKENDS, AdjacencyBatch, GrDBFormat, make_graphdb
from repro.graphgen import dedupe_edges, preferential_attachment, pubmed_like
from repro.services.sharedscan import BOTTOM_UP_SCAN, ScanBoard
from repro.services.streaming import DeltaOverlay, OverlayView
from repro.simcluster import FaultPlan, NodeSpec, SimNode
from repro.util import DeviceFailedError
from repro.util.bitset import Bitset

FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
)

#: A seeded scale-free shard over ids 0..299: hubs, leaves, chained lists.
EDGES = dedupe_edges(preferential_attachment(300, 3, seed=11))


def flatten(batches) -> list[tuple[int, list[int]]]:
    """``(vertex, list)`` sequence of a scan, checking every batch's shape."""
    out = []
    for batch in batches:
        assert isinstance(batch, AdjacencyBatch) and len(batch) > 0
        for arr in (batch.vertices, batch.offsets, batch.neighbors):
            assert arr.dtype == np.int64
        assert len(batch.offsets) == len(batch.vertices) + 1
        assert batch.offsets[0] == 0 and batch.offsets[-1] == len(batch.neighbors)
        assert (batch.degrees > 0).all()  # no empty segment
        out.extend((v, neighbors.tolist()) for v, neighbors in batch)
    return out


# -- (a) the claim step --------------------------------------------------------


def reference_claims(bm: Bitset, batch):
    """The per-vertex claim loop ``_scan_claims`` ran before batches."""
    claims, examined, skipped = [], 0, 0
    for v, neighbors in batch:
        hits = np.flatnonzero(bm.get_many(neighbors))
        if len(hits):
            first = int(hits[0])
            examined += first + 1
            skipped += len(neighbors) - first - 1
            claims.append(v)
        else:
            examined += len(neighbors)
    return claims, examined, skipped


NBITS = 24
_lists = st.lists(st.integers(0, NBITS - 1), min_size=1, max_size=6)


@given(
    lists=st.lists(_lists, min_size=1, max_size=12),
    fringe=st.sets(st.integers(0, NBITS - 1)),
)
@example(lists=[[5], [7], [5]], fringe={5})  # single-neighbour segments
@example(lists=[[3, 3, 3], [4, 3, 3]], fringe={3})  # repeated neighbours
@example(lists=[[9, 1, 2], [1, 2, 9]], fringe={9})  # hit in the first / last slot
@example(lists=[[1, 2], [3]], fringe=set())  # no hit at all
@settings(max_examples=200, deadline=None)
def test_claim_step_equals_pervertex_loop(lists, fringe):
    batch = AdjacencyBatch.from_lists(
        list(range(100, 100 + len(lists))), [np.array(x, dtype=np.int64) for x in lists]
    )
    bm = Bitset(NBITS)
    bm.set_many(sorted(fringe))
    claims, examined, skipped = _claim_batch(bm, batch)
    assert (claims.tolist(), examined, skipped) == reference_claims(bm, batch)
    assert examined + skipped == len(batch.neighbors)


# -- (b) every backend's batches flatten to the per-vertex sequence -----------

#: Overlay batches in seq order.  The first two touch only base vertices
#: (and repeat ``(5, 7)`` across batches and inside one); the third adds
#: sources with no base list — inside and beyond the base id range.
OVERLAY_ON_BASE = [
    np.array([[5, 7], [5, 2], [0, 299], [17, 4], [5, 7]]),
    np.array([[5, 7], [0, 1], [250, 3]]),
]
OVERLAY_ONLY = [np.array([[1000, 5], [640, 0], [1000, 2], [5, 1000]])]
OVERLAYS = {
    "none": [],
    "visible": OVERLAY_ON_BASE,
    "overlay-only": OVERLAY_ON_BASE + OVERLAY_ONLY,
}
#: Duplicates, unsorted, never-stored ids, an overlay-only id.
SUBSET = np.array([5, 3, 250, 5, 100000, 424242, 299, 0, 17, 17, 1000, 301])


def build(backend: str, overlay: list, **kwargs):
    db = make_graphdb(backend, SimNode(0, NodeSpec()), grdb_format=FMT, **kwargs)
    db.store_edges(EDGES)
    db.finalize_ingest()
    if overlay:
        db._stream_overlay = DeltaOverlay()
        for seq, edges in enumerate(overlay, start=1):
            db._stream_overlay.append(seq, edges)
        db._stream_overlay.published = len(overlay)
    return db


def overlay_list(overlay: list, v: int) -> list[int]:
    """``v``'s overlay entries: by batch seq, each batch sorted by dst."""
    out = []
    for edges in overlay:
        out.extend(sorted(edges[edges[:, 0] == v, 1].tolist()))
    return out


def reference_scan(db, overlay: list, vertices) -> list[tuple[int, list[int]]]:
    """The unshared plan, per vertex: the base sweep (ascending ids on every
    backend of this single-shard store), base list then overlay entries;
    then the overlay-only vertices, ascending."""
    wanted = db._base_local_vertices() if vertices is None else np.unique(vertices)
    out, seen = [], set()
    for v in wanted.tolist():
        base = db._get_adjacency(v)
        if len(base):
            assert base.dtype == np.int64
            out.append((v, base.tolist() + overlay_list(overlay, v)))
            seen.add(v)
    sources = sorted({int(s) for edges in overlay for s in edges[:, 0]})
    if vertices is not None:
        sources = [v for v in sources if v in set(vertices.tolist())]
    out.extend((v, overlay_list(overlay, v)) for v in sources if v not in seen)
    return out


@pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
@pytest.mark.parametrize("overlay", list(OVERLAYS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_flatten_to_the_pervertex_sequence(backend, overlay, subset):
    db = build(backend, OVERLAYS[overlay])
    vertices = SUBSET if subset else None
    got = flatten(db.scan_adjacency(vertices))
    want = reference_scan(db, OVERLAYS[overlay], vertices)
    assert [v for v, _ in got] == [v for v, _ in want]
    assert got == want
    if not subset:
        assert sum(len(lst) for _, lst in got) == len(EDGES) + sum(
            len(e) for e in OVERLAYS[overlay]
        )


def test_array_scan_before_finalize_walks_the_staging_map():
    db = make_graphdb("Array", SimNode(0, NodeSpec()))
    db.store_edges(EDGES)
    staged = flatten(db.scan_adjacency())
    db.finalize_ingest()
    assert staged == flatten(db.scan_adjacency())


# -- (c) flush before raise ------------------------------------------------------

FAULT_EDGES = pubmed_like(500, seed=17)
FRONTENDS = 1
DATA_DEVICE = {"grDB": "grdb_L0", "BerkeleyDB": "bdb"}


def _deploy(backend: str) -> MSSG:
    extra = {"grdb_format": scaled_grdb_format()} if backend == "grDB" else {}
    cfg = MSSGConfig(
        num_backends=4,
        num_frontends=FRONTENDS,
        backend=backend,
        cache_blocks=0,  # every adjacency request reaches the device
        replication=2,
        **extra,
    )
    mssg = MSSG(cfg)
    mssg.ingest(FAULT_EDGES)
    return mssg


def _kill_after(mssg: MSSG, backend: str, q: int, more_ops: int) -> None:
    """Back-end ``q``'s data device serves ``more_ops - 1`` more operations."""
    name = DATA_DEVICE[backend]
    node = mssg.cluster.nodes[FRONTENDS + q]
    ops = max(dev.ops for n, dev in node._disks.items() if n.startswith(name))
    mssg.set_fault_plan(FaultPlan.kill_node(FRONTENDS + q, after_ops=ops + more_ops, device=name))


@pytest.mark.parametrize(
    # delivered: vertices the parent's per-vertex generator had yielded when
    # the same fault fired (grDB: one whole window; BerkeleyDB: mid-walk).
    "backend, more_ops, delivered",
    [("grDB", 1, 128), ("BerkeleyDB", 8, 90)],
)
def test_scan_delivers_what_it_walked_before_the_fault(backend, more_ops, delivered):
    with _deploy(backend) as mssg:
        db = mssg.dbs[1]
        healthy = flatten(db.scan_adjacency())
        _kill_after(mssg, backend, 1, more_ops)
        got = []
        with pytest.raises(DeviceFailedError):
            for batch in db.scan_adjacency():
                got.extend(flatten([batch]))
        assert len(got) == delivered < len(healthy)
        assert got == healthy[:delivered]


@pytest.mark.parametrize(
    # Literals recorded on the parent commit (per-vertex generators): the
    # fault lands in the middle of a claim scan, so both numbers depend on
    # the entries examined before it.
    "backend, more_ops, schedule, seconds, edges_scanned",
    [
        ("grDB", 2, ("top-down", "bottom-up"), "0.08342646683636362", 823),
        ("BerkeleyDB", 19, ("bottom-up",), "0.18073736061818188", 7665),
    ],
)
def test_mid_scan_fault_charges_the_work_done(backend, more_ops, schedule, seconds, edges_scanned):
    with _deploy(backend) as mssg:
        _kill_after(mssg, backend, 1, more_ops)
        r = mssg.query_bfs(3, 441, direction_opt=True, direction_schedule=schedule)
    assert (r.result, r.failovers, r.device_failures, r.partial) == (3, 1, 1, False)
    assert (repr(r.seconds), r.edges_scanned) == (seconds, edges_scanned)


# -- (d) the consolidated overlay view ---------------------------------------------

_edge = st.tuples(st.integers(0, 7), st.integers(0, 7))
_batches = st.lists(st.lists(_edge, max_size=8), min_size=1, max_size=5)


def _overlay(batches) -> DeltaOverlay:
    overlay = DeltaOverlay()
    for seq, edges in enumerate(batches, start=1):
        overlay.append(seq, np.array(edges, dtype=np.int64).reshape(-1, 2))
    overlay.published = len(batches)
    return overlay


def _check_view(view, batches) -> None:
    """``view`` against per-batch lookups over ``batches`` (lists of pairs)."""
    arrays = [np.array(e, dtype=np.int64).reshape(-1, 2) for e in batches]
    want = {v: overlay_list(arrays, v) for v in range(-1, 10)}
    if not any(want.values()):
        assert view is None
        return
    assert isinstance(view, OverlayView)
    for v, lst in want.items():
        got = view.adjacency(v)
        assert got.dtype == np.int64 and got.tolist() == lst
    assert view.vertices().tolist() == [v for v in sorted(want) if want[v]]
    fringe = np.array([3, 9, 0, 3, 7, 7, 5], dtype=np.int64)  # duplicates, an absent id
    assert view.fringe(fringe).tolist() == [d for v in fringe.tolist() for d in want[v]]
    assert view.degrees(fringe).tolist() == [len(want[v]) for v in fringe.tolist()]
    assert view.fringe(fringe[:0]).tolist() == []


@given(batches=_batches)
@settings(max_examples=150, deadline=None)
def test_overlay_view_equals_perbatch_lookups(batches):
    overlay = _overlay(batches)
    _check_view(overlay.view(None), batches)
    for horizon in range(len(batches) + 1):
        _check_view(overlay.view(horizon), batches[:horizon])


def test_overlay_view_is_pinned_cached_and_invalidated():
    batches = [[(1, 2), (1, 0)], [(1, 1), (4, 4)], [(0, 3)]]
    overlay = _overlay(batches[:2])
    pinned = overlay.view(1)
    assert overlay.view(1) is pinned  # cached per horizon
    assert overlay.view(None) is overlay.view(2)  # the published horizon
    # A later append is invisible at the older snapshot; every cached view
    # is dropped with it (bounded memory) and rebuilt on the next read.
    overlay.append(3, np.array(batches[2]))
    assert not overlay._views
    assert overlay.view(1) is not pinned
    _check_view(overlay.view(1), batches[:1])
    _check_view(overlay.view(None), batches[:2])  # seq 3 is not published yet
    overlay.published = 3
    _check_view(overlay.view(None), batches)
    assert overlay.view(2).adjacency(0).tolist() == []
    # Folding a prefix into the base store drops it from every view.
    overlay.drop_through(2)
    assert not overlay._views
    _check_view(overlay.view(None), batches[2:])
    assert overlay.view(2) is None
    overlay.drop_through(3)
    assert overlay.view(None) is None


def test_overlay_append_does_no_consolidation():
    """``append`` is inside ``ingest_wall_eps``: views are built on reads."""
    overlay = _overlay([[(1, 2)], [(3, 4)]])
    assert overlay._views == {}
    overlay.view(None)
    assert list(overlay._views) == [2]


# -- (e) the shared-board plan serves the lists of the unshared plan ----------


@pytest.mark.parametrize("overlay", list(OVERLAYS))
@pytest.mark.parametrize("backend", ["Array", "grDB", "StreamDB"])
def test_shared_board_plan_equals_unshared_plan(backend, overlay):
    candidates = np.array([250, 5, 5, 17, 1000, 640, 100000, 0, 299, 3])
    db = build(backend, OVERLAYS[overlay])
    unshared = flatten(_adjacency_source(db, candidates))
    assert unshared == reference_scan(db, OVERLAYS[overlay], candidates)

    db.scan_board = board = ScanBoard()
    board.arm(BOTTOM_UP_SCAN)
    shared = flatten(_adjacency_source(db, candidates))
    assert (board.passes, board.served) == (1, 0)
    assert dict(shared) == dict(unshared)
    # Its order is np.unique(candidates) order, overlay-only vertices
    # interleaved; the unshared plan sweeps them after the base store.
    assert [v for v, _ in shared] == sorted(v for v, _ in unshared)
    # Later consumers — here one with no overlay in sight — are served from
    # the published base batch: no second device pass.
    db._stream_snap = 0
    again = flatten(_adjacency_source(db, candidates))
    assert (board.passes, board.served) == (1, 1)
    assert again == flatten(build(backend, []).scan_adjacency(candidates))
    published = board.lookup(BOTTOM_UP_SCAN, db.stats.edges_stored)
    assert isinstance(published, AdjacencyBatch)  # a CSR batch, not a dict
    assert flatten([published]) == reference_scan(db, [], None)


def test_batch_select_and_stack_keep_order_and_drop_absent():
    base = AdjacencyBatch.from_lists([9, 2, 5], [np.array([1, 1]), np.array([7]), np.array([3, 4, 5])])
    over = AdjacencyBatch.from_lists([2, 8], [np.array([6, 0]), np.array([9])])
    picked = base.select(np.array([5, 4, 9, 5]))
    assert flatten([picked]) == [(5, [3, 4, 5]), (9, [1, 1]), (5, [3, 4, 5])]
    stacked = AdjacencyBatch.stack(np.array([8, 2, 7, 9]), base, over)
    assert flatten([stacked]) == [(8, [9]), (2, [7, 6, 0]), (9, [1, 1])]
    untouched = AdjacencyBatch.stack(base.vertices, base, over.select(np.array([8])))
    assert flatten([untouched]) == flatten([base])
    nothing = AdjacencyBatch.stack(np.array([4, 6]), base, over)
    assert len(nothing) == len(nothing.neighbors) == len(AdjacencyBatch.concat([])) == 0
    whole = AdjacencyBatch.concat([base, nothing, over])
    assert flatten([whole]) == flatten([base]) + flatten([over])


# -- the call-count guard -----------------------------------------------------------

GUARD_VERTICES = 2000
GUARD_EDGES = pubmed_like(GUARD_VERTICES, seed=23)
GUARD_BACKENDS = 4


@pytest.mark.parametrize("backend, streaming", [("Array", False), ("grDB", False), ("StreamDB", True)])
def test_bulk_paths_enter_the_bitset_per_batch_not_per_vertex(backend, streaming, monkeypatch):
    """A perf regression test that reads no clock: a bottom-up level and a
    dense vertex-program superstep make one ``Bitset.get_many`` call per
    adjacency batch and no per-vertex overlay lookup, however many
    candidate vertices the scan serves."""
    calls = {"get_many": 0, "adjacency": 0}

    def counted(cls, method, key):
        original = getattr(cls, method)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    with MSSG(MSSGConfig(backend=backend, num_backends=GUARD_BACKENDS, streaming=streaming)) as mssg:
        if streaming:  # a base store plus eight visible overlay batches
            cuts = np.linspace(len(GUARD_EDGES) // 2, len(GUARD_EDGES), 9).astype(int)
            mssg.ingest(GUARD_EDGES[: cuts[0]])
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                mssg.ingest_stream(GUARD_EDGES[lo:hi])
            assert all(len(db._stream_overlay.batches) == 8 for db in mssg.dbs)
        else:
            mssg.ingest(GUARD_EDGES)
        # Batches one whole-store scan yields: grDB one per window of
        # chains, the others one (plus the overlay-only sweep).
        per_scan = max(sum(1 for _ in db.scan_adjacency()) for db in mssg.dbs)
        assert per_scan <= (8 if backend == "grDB" else 2)
        counted(Bitset, "get_many", "get_many")
        counted(OverlayView, "adjacency", "adjacency")

        r = mssg.query_bfs(1999, 1798, direction_opt=True, direction_schedule=("bottom-up",))
        assert r.result == r.levels == 5
        # Per level and rank: one call per batch, plus the visited filter's.
        bound = r.levels * GUARD_BACKENDS * (per_scan + 2)
        assert 0 < calls["get_many"] <= bound < GUARD_VERTICES / 10
        assert calls["adjacency"] == 0

        calls["get_many"] = 0
        pr = mssg.query("pagerank", max_iters=1, schedule=("dense",))
        assert pr.result["num_vertices"] == GUARD_VERTICES
        assert calls["get_many"] <= pr.levels * GUARD_BACKENDS
        assert calls["adjacency"] == 0
