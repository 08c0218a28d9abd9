"""Bulk adjacency is a CSR batch: the contract, pinned from outside.

``GraphDB.scan_adjacency`` yields :class:`AdjacencyBatch` values and its
four consumers (the claim scan, the stream overlay, the shared-scan board,
the vertex-program scatter) do array work per batch.  A list may arrive in
pieces — grDB sweeps level by level and hands out one piece per round — so
this suite holds the per-vertex behaviour as the reference twice over,
as whole lists (``grouped``) and as each producer's documented batch order:

* the array-shaped claim step equals the per-vertex claim loop;
* every backend's pieces group to the per-vertex lists, base list first,
  then overlay entries, and arrive in the documented order (overlay last);
* a grDB sweep reads every block once, stops reading what ``done`` names,
  and the claim scan's feedback keeps the answer on fewer device bytes;
* a storage walk that faults hands out what it walked before it raises;
* the consolidated overlay view equals per-batch lookups, is pinned to its
  snapshot, and is dropped when the batch list changes;
* the shared-board plan and the unshared plan serve the same lists;
* and a call-count guard: one ``Bitset.get_many`` per batch, never one per
  candidate vertex;
* and the guarded loop all three sweeping rank programs share
  (:func:`repro.bfs.rankprog.sweep`) pays for what it examined before a fault.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.bfs.direction import _claim_batch
from repro.bfs.failover import FaultTolerance, FTState
from repro.bfs.rankprog import adjacency_source
from repro.bfs.rankprog import sweep as guarded_sweep
from repro.experiments.harness import EXPERIMENT_NODE_SPEC, scaled_grdb_format
from repro.graphdb import BACKENDS, AdjacencyBatch, GrDBFormat, ModuloMap
from repro.graphdb.interface import GraphDBStats
from repro.graphdb.grdb.format import EMPTY_SLOT, is_pointer
from repro.graphgen import dedupe_edges, preferential_attachment, pubmed_like
from repro.services.sharedscan import BOTTOM_UP_SCAN, ScanBoard
from repro.services.streaming import DeltaOverlay, OverlayView
from repro.simcluster import FaultPlan, NodeSpec, SimNode
from repro.simcluster.costmodel import CpuProfile
from repro.simcluster.virtualtime import VirtualClock
from repro.util import DeviceFailedError
from repro.util.bitset import Bitset

from .helpers import make_store

FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
)

#: A seeded scale-free shard over ids 0..299: hubs, leaves, chained lists.
EDGES = dedupe_edges(preferential_attachment(300, 3, seed=11))

#: The deployment-level graph (fault rows, claim feedback) and its cluster shape.
FAULT_EDGES = pubmed_like(500, seed=17)
FRONTENDS = 1


def flatten(batches) -> list[tuple[int, list[int]]]:
    """``(vertex, piece)`` sequence of a scan, checking every batch's shape."""
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


def sweep(batches) -> list[AdjacencyBatch]:
    """The batches of one scan: well-formed, and no vertex twice in a batch."""
    batches = list(batches)
    flatten(batches)
    for batch in batches:
        assert len(np.unique(batch.vertices)) == len(batch)
    return batches


def grouped(batches) -> list[tuple[int, list[int]]]:
    """Whole ``(vertex, list)`` pairs of a scan's pieces, vertex ascending."""
    whole = AdjacencyBatch.concat(batches).grouped()
    assert np.all(np.diff(whole.vertices) > 0)
    return flatten([whole]) if len(whole) else []


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
    db = make_store(backend, SimNode(0, NodeSpec()), grdb_format=FMT, **kwargs)
    db.store_edges(EDGES)
    db.finalize_ingest()
    if overlay:
        db._stream_overlay = DeltaOverlay()
        for seq, edges in enumerate(overlay, start=1):
            db._stream_overlay.append(seq, edges)
    return db


def overlay_list(overlay: list, v: int) -> list[int]:
    """``v``'s overlay entries: by batch seq, each batch sorted by dst."""
    out = []
    for edges in overlay:
        out.extend(sorted(edges[edges[:, 0] == v, 1].tolist()))
    return out


def base_list(db, v: int) -> list[int]:
    """``v``'s base-store list from the read hook, for an id the store can
    hold (the hooks see no other: ``GraphDB``'s id-space boundary)."""
    return db._get_adjacency(v).tolist() if len(db._in_space(np.array([v]))) else []


def reference_lists(db, overlay: list, vertices) -> list[tuple[int, list[int]]]:
    """Per vertex, ascending: the base list, then the overlay entries."""
    sources = {int(s) for edges in overlay for s in edges[:, 0]}
    if vertices is None:
        wanted = sorted(sources.union(db._local_vertices().tolist()))
    else:
        wanted = np.unique(vertices).tolist()
    lists = ((v, base_list(db, v) + overlay_list(overlay, v)) for v in wanted)
    return [(v, lst) for v, lst in lists if lst]


def chain_pieces(db, v: int) -> list[tuple[tuple[int, int], list[int]]]:
    """``v``'s list as grDB stores it: ``((level, sub-block), neighbours)``
    per sub-block of its chain, read one sub-block at a time."""
    out = []
    for level, sb in db.chain_of(v):
        if db.fmt.compress:
            values, _ = db._read_compressed(level, sb)
        else:
            slots = db._read_slots(level, sb)
            values = slots[:-1] if is_pointer(int(slots[-1])) else slots
            values = values[values != EMPTY_SLOT]
        out.append(((level, sb), values.astype(np.int64).tolist()))
    return out


def reference_order(db, overlay: list, vertices) -> list[tuple[int, list[int]]]:
    """The documented delivery order of each producer, piece by piece.

    Base sweep — grDB: round-major (a chain's r-th sub-block in round r),
    ascending ``(level, sub-block)`` address within a round, empty pieces
    skipped; every other backend: complete lists, ascending ids (this is a
    single-shard store).  Then the overlay entries of every wanted vertex,
    ascending — after the base sweep, for every backend.
    """
    wanted = db._local_vertices() if vertices is None else np.unique(vertices)
    stored = [v for v in wanted.tolist() if base_list(db, v)]
    if db.name == "grDB":
        chains = {v: chain_pieces(db, v) for v in stored}
        out = []
        for r in range(max(map(len, chains.values()))):
            pending = sorted((chain[r], v) for v, chain in chains.items() if len(chain) > r)
            out.extend((v, piece) for (_, piece), v in pending if piece)
    else:
        out = [(v, base_list(db, v)) for v in stored]
    sources = sorted({int(s) for edges in overlay for s in edges[:, 0]})
    if vertices is not None:
        sources = [v for v in sources if v in set(vertices.tolist())]
    return out + [(v, overlay_list(overlay, v)) for v in sources]


@pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
@pytest.mark.parametrize("overlay", list(OVERLAYS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_flatten_to_the_pervertex_sequence(backend, overlay, subset):
    db = build(backend, OVERLAYS[overlay])
    vertices = SUBSET if subset else None
    batches = sweep(db.scan_adjacency(vertices))
    assert grouped(batches) == reference_lists(db, OVERLAYS[overlay], vertices)
    assert flatten(batches) == reference_order(db, OVERLAYS[overlay], vertices)
    if backend != "grDB":  # complete lists: one base batch, one overlay batch
        assert len(batches) == 1 + bool(OVERLAYS[overlay])
    if not subset:
        assert sum(len(b.neighbors) for b in batches) == len(EDGES) + sum(
            len(e) for e in OVERLAYS[overlay]
        )


@pytest.mark.parametrize("overlay", ["visible", "overlay-only"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_overlay_arrives_last_and_honours_done(backend, overlay):
    """One overlay batch after the base sweep, without the vertices the
    consumer is done with — whether it said so before or during the scan."""
    db = build(backend, OVERLAYS[overlay])
    sources = sorted({int(s) for edges in OVERLAYS[overlay] for s in edges[:, 0]})
    done = [np.array([5, 640])]  # before the scan: one with a base list, one overlay-only
    batches = []
    for batch in db.scan_adjacency(done=done):
        batches.append(batch)
        if 17 in batch.vertices.tolist():
            done.append(np.array([17]))  # during it: 17's base list has just gone by
    flatten(batches)
    assert batches[-1].vertices.tolist() == [v for v in sources if v not in (5, 17, 640)]
    for v, lst in flatten(batches[-1:]):
        assert lst == overlay_list(OVERLAYS[overlay], v)
    base = dict(grouped(batches[:-1]))
    stored = db._local_vertices().tolist()
    # Complete-list producers ignore ``done``; grDB drops the chain where it
    # stands — 5 before its head is read, 17 after its level-0 piece.
    if backend == "grDB":
        assert len(db.chain_of(17)) > 1 and base[17] == chain_pieces(db, 17)[0][1]
        assert sorted(base) == [v for v in stored if v != 5]
    else:
        assert base[17] == db._get_adjacency(17).tolist()
        assert sorted(base) == stored


# -- (b') the grDB level sweep: pieces, every block once, claim feedback -------

_multi_edge = st.tuples(st.integers(0, 39), st.integers(0, 200))


@given(
    edges=st.lists(_multi_edge, min_size=1, max_size=400),
    windows=st.integers(1, 3),
    compress=st.booleans(),
    policy=st.sampled_from(["link", "move"]),
    cache_blocks=st.sampled_from([0, 3, 64]),
    subset=st.booleans(),
)
@example(  # one hub through every level and along the top one, no cache
    edges=[(0, d) for d in range(150)] + [(0, 7)] * 3 + [(2, 1)],
    windows=2, compress=False, policy="link", cache_blocks=0, subset=False,
)
@settings(max_examples=120, deadline=None)
def test_sweep_pieces_group_to_the_pervertex_lists(
    edges, windows, compress, policy, cache_blocks, subset
):
    """Random multigraphs (duplicate edges, self-loops) on a declustered
    shard: the sweep's pieces, grouped, are ``_get_adjacency`` exactly."""
    id_map = ModuloMap(2, 0)
    db = make_store(
        "grDB", SimNode(0, NodeSpec()), id_map=id_map, grdb_format=FMT,
        compress_adjacency=compress, growth_policy=policy, cache_blocks=cache_blocks,
    )
    edges = np.array([(2 * s, d) for s, d in edges], dtype=np.int64)  # owned sources
    for part in np.array_split(edges, windows):  # chains grow across ingest windows
        db.store_edges(part)
    if subset:  # duplicates, unsorted, a never-stored id, a non-local (odd) one
        wanted = np.concatenate((edges[::2, 0], [78, 31, 4, 4]))
    else:
        wanted = None
    got = grouped(sweep(db.scan_adjacency(wanted)))
    vs = db._local_vertices() if wanted is None else np.unique(wanted[wanted % 2 == 0])
    want = [(v, db._get_adjacency(v).tolist()) for v in vs.tolist()]
    assert got == [(v, lst) for v, lst in want if lst]
    if wanted is None:
        assert sum(len(lst) for _, lst in got) == len(edges)


def _level_bytes_read(db) -> dict[int, int]:
    out = dict.fromkeys(range(db.fmt.num_levels), 0)
    for (level, _), dev in db.storage._files.items():
        out[level] += dev.stats.bytes_read
    return out


def test_cold_sweep_reads_every_block_once_and_done_stops_the_walk():
    """A device count, so it repeats exactly: with no cache at all, one
    whole-store sweep reads each written block below the top level exactly
    once (the 128-chain window it replaces re-read the upper levels once per
    window), and the top level once per link of its longest chain.  With
    every vertex ``done`` after its first piece, only level 0 is read."""
    db = build("grDB", [], cache_blocks=0)
    hub = np.column_stack([np.full(200, 7), np.arange(1000, 1200)])
    db.store_edges(hub)  # 7's chain now links three top-level sub-blocks
    top = db.fmt.num_levels - 1
    top_links = max(sum(level == top for level, _ in db.chain_of(v)) for v in range(300))
    assert top_links == 3
    stored = dict.fromkeys(range(db.fmt.num_levels), 0)
    for level, _ in db.storage._written_blocks:
        stored[level] += db.fmt.block_sizes[level]
    assert all(stored.values())

    before = _level_bytes_read(db)
    swept = sum(len(batch.neighbors) for batch in sweep(db.scan_adjacency()))
    read = {lv: n - before[lv] for lv, n in _level_bytes_read(db).items()}
    assert swept == len(EDGES) + len(hub)
    assert {lv: read[lv] for lv in range(top)} == {lv: stored[lv] for lv in range(top)}
    assert stored[top] <= read[top] <= top_links * stored[top]

    before = _level_bytes_read(db)
    done = []
    for batch in db.scan_adjacency(done=done):
        done.append(batch.vertices)
    read = {lv: n - before[lv] for lv, n in _level_bytes_read(db).items()}
    assert read == {**dict.fromkeys(range(db.fmt.num_levels), 0), 0: stored[0]}


def test_a_vertex_claimed_in_one_round_appears_in_no_later_batch():
    """Claim feedback at the contract: a vertex put on ``done`` between
    batches is delivered nothing more, and the others' pieces group whole."""
    db = build("grDB", OVERLAYS["overlay-only"], cache_blocks=3)
    fringe = Bitset(1001)
    fringe.set_many(np.arange(0, 300, 7))
    done = []
    claimed: set[int] = set()
    batches = []
    for batch in db.scan_adjacency(done=done):
        assert not claimed.intersection(batch.vertices.tolist())
        got, _, _ = _claim_batch(fringe, batch)
        done.append(got)
        claimed.update(got.tolist())
        batches.append(batch)
    whole = dict(reference_lists(db, OVERLAYS["overlay-only"], None))
    assert 5 < len(claimed) < len(whole)
    for v, lst in grouped(sweep(batches)):
        if v in claimed:  # a prefix of its list, ending in the piece that claimed it
            assert lst == whole[v][: len(lst)] and fringe.get_many(lst).any()
        else:
            assert lst == whole[v] and not fringe.get_many(lst).any()
    assert sorted(claimed) == [v for v, lst in whole.items() if fringe.get_many(lst).any()]


def _device_bytes_read(mssg: MSSG) -> int:
    return sum(
        dev.stats.bytes_read
        for node in mssg.cluster.nodes[FRONTENDS:]
        for dev in node._disks.values()
    )


def test_claim_feedback_keeps_the_answer_on_fewer_device_bytes():
    """Forced bottom-up on production grDB.  The answer, ``levels``,
    ``edges_examined`` and ``edges_scanned`` are literals recorded on the
    parent commit (windowed scan, no feedback), where the query read
    110 700 device bytes: a vertex is still claimed at the same entry of the
    same list, but the chain behind a claim is no longer read."""
    cfg = MSSGConfig(
        num_backends=2,
        backend="grDB",
        grdb_format=scaled_grdb_format(),
        cache_blocks=8,
        node_spec=EXPERIMENT_NODE_SPEC,
    )
    with MSSG(cfg) as mssg:
        mssg.ingest(FAULT_EDGES)
        before = _device_bytes_read(mssg)
        r = mssg.query_bfs(3, 441, direction_opt=True, direction_schedule=("bottom-up",))
        read = _device_bytes_read(mssg) - before
    assert (r.result, r.levels, r.edges_examined, r.edges_scanned) == (3, 3, 5084, 5084)
    assert 0 < read < 110_700
    assert r.edges_skipped < 6131  # delivered-not-examined: the unread rest is not counted


@pytest.mark.parametrize("backend", ["Array", "HashMap"])
def test_scan_before_finalize_reads_the_packed_chunks(backend):
    db = make_store(backend, SimNode(0, NodeSpec()))
    db.store_edges(EDGES)
    staged = flatten(db.scan_adjacency())
    db.finalize_ingest()
    assert staged == flatten(db.scan_adjacency())


# -- (c) flush before raise ------------------------------------------------------

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
    # delivered: pieces handed out when the fault fires.  BerkeleyDB: the
    # per-vertex generator's count, mid-walk.  grDB, re-recorded for the
    # level sweep (was 128, one whole window of complete lists): the second
    # level-0 read faults, so what is out is the level-0 pieces of the first
    # run of four blocks (``cache_blocks=0``) — 64 of this replica's ids.
    "backend, more_ops, delivered",
    [("grDB", 1, 64), ("BerkeleyDB", 8, 90)],
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
    #
    # The grDB row is re-recorded for the level sweep (was
    # "0.08342646683636362", 823); the answer and the three failover counters
    # did not move.  ``edges_scanned`` is the healthy 737 plus what the dying
    # rank examined before its second level-0 read faulted: 48 entries of one
    # four-block run's level-0 pieces, where a 128-chain window of complete
    # lists had held 86.  ``seconds`` went *up*, and not through the fault:
    # this deployment has no cache (run budget: the floor of 4 blocks) and
    # 512-byte blocks under 4 KiB CRC frames, so a run is half a frame and
    # every level-0 frame is read twice — the healthy query is 0.0588 ->
    # 0.0827 s here.  Any deployment with a pool of >= 8 blocks (every
    # benchmark workload) reads each frame once.
    #
    # The BerkeleyDB row is re-recorded for ``local_vertices`` served from
    # the RAM census (was "0.18073736061818188", 7665): the first level no
    # longer walks 12 leaf pages to list the sources, so the 19th operation
    # lands later in the all-pull schedule's claim scans; the answer and the
    # three failover counters did not move.
    "backend, more_ops, schedule, seconds, edges_scanned",
    [
        ("grDB", 2, ("top-down", "bottom-up"), "0.11540196050909127", 785),
        ("BerkeleyDB", 19, ("bottom-up",), "0.14820812287272725", 6900),
    ],
)
def test_mid_scan_fault_charges_the_work_done(backend, more_ops, schedule, seconds, edges_scanned):
    with _deploy(backend) as mssg:
        _kill_after(mssg, backend, 1, more_ops)
        r = mssg.query_bfs(3, 441, direction_opt=True, direction_schedule=schedule)
    assert (r.result, r.failovers, r.device_failures, r.partial) == (3, 1, 1, False)
    assert (repr(r.seconds), r.edges_scanned) == (seconds, edges_scanned)


class _DyingStore:
    """Two batches of three entries each, then the device fails."""

    cpu = CpuProfile(edge_visit_seconds=0.5)

    def __init__(self):
        self.stats = GraphDBStats(edges_scanned=100)

    def scan_adjacency(self, wanted, done=None):
        for v in wanted[:2]:
            yield AdjacencyBatch.from_lists([int(v)], [np.array([7, 8, 9])])
        raise DeviceFailedError("injected")


def test_sweep_charges_and_counts_what_it_examined_before_the_fault():
    """The one guarded loop under the claim scan and a superstep's scatter: a
    pass that dies still pays for the entries its step examined; failover turns the error into ``ok=False``, without it, it
    propagates."""
    ctx = SimpleNamespace(clock=VirtualClock(10.0))
    wanted = np.arange(5)

    def step(batch):
        seen.append(batch.vertices.tolist())
        return 2  # of each batch's three entries, like an early-exit claim

    for ft in (FTState.start(FaultTolerance(), 4, 1), None):
        db, seen = _DyingStore(), []
        before = ctx.clock.now
        if ft is None:
            with pytest.raises(DeviceFailedError):
                guarded_sweep(ctx, db, wanted, step, ft, shared=False)
        else:
            assert guarded_sweep(ctx, db, wanted, step, ft, shared=False) == (4, False)
            assert ft.self_dead and ft.device_failed
        assert seen == [[0], [1]]
        assert db.stats.edges_scanned == 104
        assert ctx.clock.now - before == 4 * 0.5


# -- (d) the consolidated overlay view ---------------------------------------------

_edge = st.tuples(st.integers(0, 7), st.integers(0, 7))
_batches = st.lists(st.lists(_edge, max_size=8), min_size=1, max_size=5)


def _overlay(batches) -> DeltaOverlay:
    overlay = DeltaOverlay()
    for seq, edges in enumerate(batches, start=1):
        overlay.append(seq, np.array(edges, dtype=np.int64).reshape(-1, 2))
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
    assert overlay.view(None) is overlay.view(2)  # every batch held
    # A later append is invisible at the older snapshots; every cached view
    # is dropped with it (bounded memory) and rebuilt on the next read.
    overlay.append(3, np.array(batches[2]))
    assert not overlay._views
    assert overlay.view(1) is not pinned
    _check_view(overlay.view(1), batches[:1])
    _check_view(overlay.view(2), batches[:2])  # a pinned snapshot hides seq 3
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
    lists = reference_lists(db, OVERLAYS[overlay], candidates)
    unshared = sweep(adjacency_source(db, candidates))
    assert flatten(unshared) == reference_order(db, OVERLAYS[overlay], candidates)
    assert grouped(unshared) == lists

    db.scan_board = board = ScanBoard()
    board.arm(BOTTOM_UP_SCAN)
    shared = sweep(adjacency_source(db, candidates))
    assert (board.passes, board.served) == (1, 0)
    # One batch of whole lists — the grouped base with the overlay stacked per
    # vertex — in np.unique(candidates) order; the unshared plan sweeps in
    # storage order, in pieces on grDB, overlay last.
    assert len(shared) == 1 and flatten(shared) == lists
    # Later consumers — here one with no overlay in sight — are served from
    # the published base batch: no second device pass.
    db._stream_snap = 0
    again = flatten(adjacency_source(db, candidates))
    assert (board.passes, board.served) == (1, 1)
    assert again == reference_lists(db, [], candidates)
    published = board.lookup(BOTTOM_UP_SCAN, db.stats.edges_stored)
    assert isinstance(published, AdjacencyBatch)  # a CSR batch, not a dict
    assert flatten([published]) == reference_lists(db, [], None)  # complete lists


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
        # Batches one whole-store scan yields: grDB one per round, level and
        # run of blocks, the others one (plus the overlay batch).
        per_scan = max(sum(1 for _ in db.scan_adjacency()) for db in mssg.dbs)
        assert per_scan <= (8 if backend == "grDB" else 2)
        counted(Bitset, "get_many", "get_many")
        counted(OverlayView, "adjacency", "adjacency")

        r = mssg.query_bfs(1999, 1798, direction_opt=True, direction_schedule=("bottom-up",))
        assert r.result == r.levels == 5
        # Per level and rank: one call per batch, plus the visited filter's
        # (claim feedback costs none: ``done`` is the scan's own claims list).
        bound = r.levels * GUARD_BACKENDS * (per_scan + 2)
        assert 0 < calls["get_many"] <= bound < GUARD_VERTICES / 10
        assert calls["adjacency"] == 0

        calls["get_many"] = 0
        pr = mssg.query("pagerank", max_iters=1, schedule=("dense",))
        assert pr.result["num_vertices"] == GUARD_VERTICES
        assert calls["get_many"] <= pr.levels * GUARD_BACKENDS
        assert calls["adjacency"] == 0
