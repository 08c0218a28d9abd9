"""Batched fringe expansion is byte-identical to the per-vertex loop.

The tentpole guarantee of the batched I/O path: for every backend and every
fringe — duplicates, hubs, non-local and never-stored ids, empty — the
batched plan returns exactly the same adjacency entries in exactly the same
order as the paper-prototype per-vertex loop, with identical operation
counters.  Plus unit tests for the vectored device read primitive
(``BlockDevice.readv``) and the device-visible coalescing it buys.
"""

import numpy as np
import pytest

import repro.graphdb.grdb.format as grdb_format
from repro import MSSG, MSSGConfig
from repro.experiments.harness import EXPERIMENT_NODE_SPEC, scaled_grdb_format
from repro.graphdb import GrDBFormat, ModuloMap
from repro.graphdb.bdb_db import BerkeleyGraphDB
from repro.graphgen import dedupe_edges, preferential_attachment, pubmed_like
from repro.simcluster import BlockDevice, MemoryBacking, NodeSpec, SimNode

from .helpers import make_store

FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
)

BACKENDS = ("grDB", "BerkeleyDB", "MySQL", "StreamDB")

#: A seeded scale-free shard: hubs, leaves, and ids the shard never stores.
EDGES = dedupe_edges(preferential_attachment(300, 3, seed=11))


def build(backend: str, batch_io: bool, id_map=None, compress: bool = False):
    node = SimNode(0, NodeSpec())
    db = make_store(
        backend, node, id_map=id_map, grdb_format=FMT, batch_io=batch_io,
        compress_adjacency=compress,
    )
    edges = EDGES
    if id_map is not None:
        edges = edges[edges[:, 0] % id_map.nparts == id_map.rank]
    db.store_edges(edges)
    db.finalize_ingest()
    return db


def expand(db, fringe) -> tuple[np.ndarray, int, int]:
    req0, scan0 = db.stats.adjacency_requests, db.stats.edges_scanned
    out = db.expand_fringe(np.asarray(fringe, dtype=np.int64))
    return (
        out,
        db.stats.adjacency_requests - req0,
        db.stats.edges_scanned - scan0,
    )


FRINGES = [
    [],
    [0],  # the biggest hub of a preferential-attachment graph
    [5, 3, 8, 3, 5],  # duplicates, unsorted
    [299, 0, 150],  # extremes
    [100000, 424242],  # never stored
    list(range(60)),  # dense: above BerkeleyDB's range-scan threshold
    np.random.default_rng(7).permutation(300)[:90].tolist(),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fringe_idx", range(len(FRINGES)))
def test_batched_matches_pervertex(backend, fringe_idx):
    fringe = FRINGES[fringe_idx]
    plain = build(backend, batch_io=False)
    batched = build(backend, batch_io=True)
    got_plain, req_p, scan_p = expand(plain, fringe)
    got_batch, req_b, scan_b = expand(batched, fringe)
    assert got_plain.tolist() == got_batch.tolist()
    assert (req_p, scan_p) == (req_b, scan_b)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_matches_get_adjacency(backend):
    """The batched path also agrees with the public one-vertex API.

    grDB/BerkeleyDB/MySQL emit per fringe entry in fringe order, so the
    comparison is exact; StreamDB answers the fringe with one log scan and
    has never promised per-entry order, so it is compared as a multiset
    over a duplicate-free fringe (the seed contract).
    """
    db = build(backend, batch_io=True)
    fringe = [0, 17, 555, 42] if backend == "StreamDB" else [0, 17, 17, 555, 42]
    got, _, _ = expand(db, fringe)
    expected = np.concatenate(
        [db.get_adjacency(int(v)) for v in fringe] or [np.empty(0, dtype=np.int64)]
    )
    if backend == "StreamDB":
        assert sorted(got.tolist()) == sorted(expected.tolist())
    else:
        assert got.tolist() == expected.tolist()


def test_grdb_batched_with_modulo_map():
    id_map = ModuloMap(4, 1)
    plain = build("grDB", batch_io=False, id_map=id_map)
    batched = build("grDB", batch_io=True, id_map=id_map)
    # Owned, unowned, and never-stored ids interleaved.
    fringe = [1, 2, 5, 9, 9, 0, 13, 99997]
    got_plain, req_p, _ = expand(plain, fringe)
    got_batch, req_b, _ = expand(batched, fringe)
    assert got_plain.tolist() == got_batch.tolist()
    assert req_p == req_b == len(fringe)


def test_bdb_range_scan_and_point_lookup_agree():
    """Both sides of the BATCH_SCAN_MIN threshold produce identical output."""
    db = build("BerkeleyDB", batch_io=True)
    dense = list(range(BerkeleyGraphDB.BATCH_SCAN_MIN + 8))
    sparse = dense[:4]
    got_dense, _, _ = expand(db, dense)
    plain = build("BerkeleyDB", batch_io=False)
    exp_dense, _, _ = expand(plain, dense)
    assert got_dense.tolist() == exp_dense.tolist()
    got_sparse, _, _ = expand(db, sparse)
    exp_sparse, _, _ = expand(plain, sparse)
    assert got_sparse.tolist() == exp_sparse.tolist()


def test_grdb_batched_charges_no_more_virtual_time():
    plain = build("grDB", batch_io=False)
    batched = build("grDB", batch_io=True)
    fringe = list(range(120))
    t0 = plain.clock.now
    expand(plain, fringe)
    plain_cost = plain.clock.now - t0
    t0 = batched.clock.now
    expand(batched, fringe)
    batched_cost = batched.clock.now - t0
    assert batched_cost < plain_cost


def test_grdb_batched_coalesces_device_reads():
    """Cold-cache batched expansion issues fewer, larger device reads."""

    def cold_read_stats(batch_io: bool):
        db = build("grDB", batch_io=batch_io)
        db.flush()
        db.storage.cache.clear()
        expand(db, list(range(0, 300, 2)))
        s = db.storage.total_device_stats()
        return s["reads"], s["bytes_read"]

    reads_plain, bytes_plain = cold_read_stats(False)
    reads_batch, bytes_batch = cold_read_stats(True)
    assert reads_batch < reads_plain
    assert bytes_batch / reads_batch > bytes_plain / reads_plain


def test_grdb_codec_entered_per_round_and_level_not_per_subblock(monkeypatch):
    """A perf regression test that reads no clock: the read path enters the
    codec once per (round, level), however many sub-blocks a round gathers."""
    calls = {"decode_sorted_segments": 0, "decode_sorted": 0}

    def counted(name):
        original = getattr(grdb_format, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(grdb_format, name, wrapper)

    db = build("grDB", batch_io=True, compress=True)
    per_resolve = max(len(db.chain_of(v)) for v in db.local_vertices().tolist()) * FMT.num_levels
    counted("decode_sorted_segments")
    counted("decode_sorted")

    fringe = np.arange(250)
    got, _, scanned = expand(db, fringe)
    assert scanned == len(got) > 250
    assert 0 < calls["decode_sorted_segments"] <= per_resolve

    # The sweep: one codec call per (round, level, run of blocks) — all the
    # chains walk together, so there is no per-window factor.
    calls["decode_sorted_segments"] = 0
    swept = sum(len(batch.neighbors) for batch in db.scan_adjacency())
    assert swept == db.stats.edges_stored
    budget = max(4, db.storage.cache.capacity)
    runs_per_level = max(
        -(-sum(1 for lv, _ in db.storage._written_blocks if lv == level) // budget)
        for level in range(FMT.num_levels)
    )
    assert runs_per_level == 1  # the whole store fits one run at this cache size
    assert 0 < calls["decode_sorted_segments"] <= per_resolve * runs_per_level
    assert calls["decode_sorted"] == 0  # the one-frame decoder is off this path


def test_compressed_grdb_virtual_clock_is_pinned():
    """Golden virtual pin, recorded on the commit before the segmented decode.

    A wall-only change to the read path must leave every virtual second and
    every device counter of a compressed grDB deployment bit-identical:
    same charges in the same order, same block fetches, same cache traffic.

    Re-recorded once, for PR 15's window append — a stated model change on
    compressed ingest: tails are read once per window in block order and
    every block is written once, and a first-seen head is decoded once, not
    twice (``ingest.seconds`` was 0.012038149018181885).  The device image
    is unchanged; the query and ``components`` literals (query 2 in its
    last digit, query 3 not at all) and the device totals moved only
    through the cache residue ingest leaves behind.

    Re-recorded once more, for PR 19's level sweep — a stated model change
    on every grDB storage-order scan: all wanted chains walk together, each
    block is read once per sweep, and a claimed vertex's chain is dropped.
    ``ingest.seconds`` did not move, nor did any query's result, ``levels``,
    ``edges_scanned`` or ``edges_examined`` (checked against the parent
    field by field, and asserted below).  Queries 1-3 run bottom-up levels
    and got cheaper (were 0.0010903088363636347, 0.0019522737090909065,
    0.0014951552363636328); query 4 is pure top-down and moved only through
    the pool contents the earlier sweeps leave behind (was
    0.0006290472000000002); ``components`` was 0.005158307381818172; the
    device totals were 171 reads, 738000 bytes read, busy
    0.024294568888888885 — writes, bytes written and seeks are unchanged.

    Re-recorded for the shared commit root — a stated model change on the
    checksummed flush: the superblock is written as whole frames, so each
    back-end's ingest flush skips the read-modify-write read of frame 0.
    Three reads, 12 300 bytes read and three seeks fewer (were 147, 623200,
    84, busy 0.023878568888888885); ``ingest.seconds`` was
    0.010938149018181801.  Writes, bytes written, every query and
    ``components`` are unchanged.
    """
    edges = pubmed_like(600, avg_degree=12.0, hub_fraction=0.01, seed=5)
    cfg = MSSGConfig(
        num_backends=3,
        num_frontends=1,
        backend="grDB",
        grdb_format=scaled_grdb_format(),
        cache_blocks=8,
        node_spec=EXPERIMENT_NODE_SPEC,
    )
    with MSSG(cfg) as mssg:
        ingest = mssg.ingest(edges)
        queries = [mssg.query_bfs(s, d) for s, d in [(0, 599), (17, 423), (250, 3), (598, 77)]]
        components = mssg.query("components")
        disks = dict.fromkeys(
            ("reads", "writes", "bytes_read", "bytes_written", "seeks", "busy_seconds"), 0
        )
        for node in mssg.cluster.nodes[cfg.num_frontends :]:
            for _, dev in sorted(node._disks.items()):
                for key in disks:
                    disks[key] += getattr(dev.stats, key)
    assert ingest.seconds == 0.010656229018181801
    assert [q.seconds for q in queries] == [
        0.0009189508363636353,
        0.0016624337090909082,
        0.001335591236363634,
        0.0006530472000000002,
    ]
    assert [q.result for q in queries] == [2, 3, 2, 2]
    assert [(q.levels, q.edges_scanned, q.edges_examined) for q in queries] == [
        (2, 616, 376), (3, 1930, 1905), (2, 2858, 2841), (2, 333, 0)
    ]
    assert components.seconds == 0.005147307381818183
    assert disks == {
        "reads": 144,
        "writes": 69,
        "bytes_read": 610900,
        "bytes_written": 323900,
        "seeks": 81,
        "busy_seconds": 0.023032808888888884,
    }


class TestReadv:
    def make_device(self) -> BlockDevice:
        dev = BlockDevice(MemoryBacking())
        dev.write(0, bytes(range(256)) * 4)
        return dev

    def test_results_match_single_reads(self):
        dev = self.make_device()
        requests = [(100, 10), (0, 4), (512, 32), (101, 3)]
        got = dev.readv(requests)
        assert got == [dev.read(off, n) for off, n in requests]

    def test_empty(self):
        assert self.make_device().readv([]) == []

    def test_adjacent_requests_coalesce(self):
        dev = self.make_device()
        before = dev.stats.reads
        dev.readv([(0, 64), (64, 64), (128, 64)])
        assert dev.stats.reads - before == 1

    def test_gap_splits_run(self):
        dev = self.make_device()
        before = dev.stats.reads
        dev.readv([(0, 64), (256, 64)])
        assert dev.stats.reads - before == 2

    def test_overlap_coalesces(self):
        dev = self.make_device()
        before = dev.stats.reads
        got = dev.readv([(0, 100), (50, 100)])
        assert dev.stats.reads - before == 1
        assert got[1] == dev.read(50, 100)

    def test_unsorted_input_returns_in_request_order(self):
        dev = self.make_device()
        got = dev.readv([(512, 8), (0, 8)])
        assert got[0] == dev.read(512, 8)
        assert got[1] == dev.read(0, 8)

    def test_negative_rejected(self):
        dev = self.make_device()
        with pytest.raises(ValueError):
            dev.readv([(-1, 8)])
        with pytest.raises(ValueError):
            dev.readv([(0, -8)])

    def test_charges_one_seek_per_run(self):
        dev = self.make_device()
        dev.read(900, 1)  # park the head away from the runs
        seeks_before = dev.stats.seeks
        dev.readv([(0, 64), (64, 64), (300, 64)])
        assert dev.stats.seeks - seeks_before == 2
