"""Streaming ingest suite: delta logs, snapshots, compaction, crash matrix.

Pins down the DESIGN §12 contract:

* a streamed prefix answers queries bit-identically to a from-scratch
  batch ingest of the same prefix, on every backend and knob combination;
* in-drain ingest (``query_many(stream_batches=...)``) gives every query
  the snapshot published at its admission, whatever lands later;
* a crash at ANY injected point — torn delta append, mid-compaction,
  torn publish — recovers all-or-nothing to the last published snapshot,
  with zero residual corrupt frames and no duplicated adjacency;
* fault plans arm at any life-cycle point (satellite: the old
  "install after ingest" guidance is a clock note, not a restriction).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.graphgen import pubmed_like
from repro.services.ingestion import IngestReport
from repro.simcluster import DiskFault, FaultPlan
from repro.storage.deltalog import RECORD_START, DeltaLog
from repro.util.errors import ConfigError, GraphStorageException

ALL_BACKENDS = ["Array", "HashMap", "MySQL", "BerkeleyDB", "StreamDB", "grDB"]
TOKEN_BACKENDS = ["StreamDB", "grDB"]  # durable commit token -> exact intents


def small_graph(seed: int, n: int = 40, m: int = 220) -> np.ndarray:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return edges[edges[:, 0] != edges[:, 1]]


def deploy(backend, *, streaming=True, replication=1, storage_dir=None,
           plan=None, num_backends=2, **kw):
    return MSSG(
        MSSGConfig(
            num_backends=num_backends,
            num_frontends=1,
            backend=backend,
            streaming=streaming,
            replication=replication,
            storage_dir=storage_dir,
            fault_plan=plan,
            **kw,
        )
    )


def distances(mssg, pairs):
    return [mssg.query_bfs(s, d).result for s, d in pairs]


# ---------------------------------------------------------------------------
# Streamed prefix == batch ingest of the prefix
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(10, 200), min_size=1, max_size=3),
    backend=st.sampled_from(ALL_BACKENDS),
    replication=st.sampled_from([1, 2]),
    compress=st.booleans(),
)
def test_streamed_prefix_equals_batch_ingest(seed, cuts, backend, replication, compress):
    """After each streamed batch, queries == a from-scratch batch ingest."""
    edges = small_graph(seed)
    bounds = sorted(set(min(c, len(edges)) for c in cuts) | {len(edges)})
    pairs = [(0, 39), (1, 38), (3, 36)]
    kw = dict(compress_adjacency=compress, replication=replication)
    m = deploy(backend, **kw)
    try:
        prev = 0
        for bound in bounds:
            m.ingest_stream(edges[prev:bound])
            prev = bound
            ref = deploy(backend, streaming=False, **kw)
            try:
                ref.ingest(edges[:bound])
                assert distances(m, pairs) == distances(ref, pairs)
            finally:
                ref.close()
        assert m.last_ingest.batches == len(bounds)
    finally:
        m.close()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_compaction_preserves_answers(backend):
    """Queries before and after compact() read identical adjacency."""
    edges = small_graph(7)
    pairs = [(0, 39), (2, 37), (5, 34)]
    m = deploy(backend)
    try:
        m.ingest_stream(edges[:100])
        m.ingest_stream(edges[100:])
        before = distances(m, pairs)
        report = m.compact()
        assert report.batches_folded > 0
        assert distances(m, pairs) == before
        # Idempotent: nothing left to fold.
        assert m.compact().batches_folded == 0
    finally:
        m.close()


def test_ingest_stream_requires_streaming_mode():
    m = deploy("HashMap", streaming=False)
    try:
        with pytest.raises(ConfigError):
            m.ingest_stream(small_graph(0))
        with pytest.raises(ConfigError):
            m.compact()
        with pytest.raises(ConfigError):
            m.query_many([(0, 1)], stream_batches=[small_graph(0)])
    finally:
        m.close()


# ---------------------------------------------------------------------------
# In-drain ingest: snapshot-consistent admission
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_in_drain_snapshot_consistency(backend):
    """Each drained query answers at its admission snapshot exactly."""
    edges = small_graph(11)
    base, b1, b2 = edges[:120], edges[120:170], edges[170:]
    pairs = [(0, 39), (1, 38), (2, 37), (3, 36), (5, 34), (7, 32)]
    m = deploy(backend)
    try:
        m.ingest_stream(base)
        rep = m.query_many(pairs, stream_batches=[b1, b2], stream_every=2,
                           max_inflight=2)
        assert rep.stream_batches == 2
        assert m.last_ingest.batches == 3
        snaps = [q.snapshot_seq for q in rep.queries]
        assert all(s is not None for s in snaps)
        assert snaps == sorted(snaps)  # FIFO admission -> monotone snapshots
        for (s, d), q in zip(pairs, rep.queries):
            ref = deploy(backend)
            try:
                ref.ingest_stream(base)
                for batch in [b1, b2][: q.snapshot_seq - 1]:
                    ref.ingest_stream(batch)
                assert ref.query_bfs(s, d).result == q.result, (s, d)
            finally:
                ref.close()
    finally:
        m.close()


def test_stream_batches_may_be_a_generator():
    """A generator of batches feeds the drain and grows the id space alike."""
    m = deploy("StreamDB")
    try:
        m.ingest_stream(small_graph(11))
        new = np.array([[5000, 1], [1, 5000]])
        rep = m.query_many([(1, 5000)], stream_batches=(b for b in [new]))
        assert rep.stream_batches == 1 and rep.queries[0].result == 1
    finally:
        m.close()


def test_snapshot_seq_none_outside_streaming():
    m = deploy("HashMap", streaming=False)
    try:
        m.ingest(small_graph(3))
        rep = m.query_many([(0, 39), (1, 38)])
        assert all(q.snapshot_seq is None for q in rep.queries)
        assert rep.stream_batches == 0
    finally:
        m.close()


# ---------------------------------------------------------------------------
# Crash matrix: kill points on delta append and compaction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
@pytest.mark.parametrize("ops", [0, 1, 2, 3, 5])
def test_crash_torn_delta_append(tmp_path, backend, ops):
    """A crash mid-append recovers to the last published snapshot."""
    d = str(tmp_path)
    edges = small_graph(17)
    base, nxt = edges[:140], edges[140:]
    pairs = [(0, 39), (1, 38), (4, 35)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    m.ingest_stream(base)
    want = {1: distances(m, pairs)}
    m.set_fault_plan(
        FaultPlan([DiskFault(node=3, device="deltalog", kind="crash",
                             after_ops=ops)])
    )
    try:
        m.ingest_stream(nxt)
    except Exception:
        pass
    m.close()

    full = deploy(backend, replication=2, num_backends=3)
    full.ingest_stream(base)
    full.ingest_stream(nxt)
    want[2] = distances(full, pairs)
    full.close()

    m2 = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    try:
        pub = m2.streaming.published
        assert pub in (1, 2)
        got = [m2.query_bfs(s, dd) for s, dd in pairs]
        assert [g.result for g in got] == want[pub]
        assert not any(g.partial for g in got)
        # Zero residual corrupt frames anywhere after recovery.
        assert m2.scrub().corrupt_frames == 0
    finally:
        m2.close()


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
@pytest.mark.parametrize("ops", [0, 1, 2, 4, 8, 16])
def test_crash_mid_compaction(tmp_path, backend, ops):
    """A crash anywhere in compact() keeps the deltas or adopts the fold."""
    devname = "streamdb" if backend == "StreamDB" else "grdb"
    _crash_mid_compaction(str(tmp_path), backend, devname, ops)


@pytest.mark.parametrize("kind", ["fail", "crash"])
@pytest.mark.parametrize(
    "backend, device",
    [("StreamDB", "stream_meta"), ("grDB", "grdb_wal"), ("grDB", "grdb_super")],
)
def test_crash_mid_compaction_on_each_commit_operation(tmp_path, backend, device, kind):
    """A fault at each operation compact() makes on a commit device of the
    base store, one after another until compact() completes: a root that
    landed without its fold (or a fold without its root) must never read
    as the other.  A batch ingest first leaves StreamDB's log tail
    unaligned, so its fold commits a guard root before its own; a ``fail``
    between the two is the case where the root's slot seq has advanced
    and its ``commits`` token must not have."""
    for k in range(64):
        if _crash_mid_compaction(
            str(tmp_path / str(k)), backend, device, k, relative=True, base=True, kind=kind
        ):
            break
    else:
        pytest.fail(f"compact() still crashes after {k + 1} operations of {device}")


def _crash_mid_compaction(
    d, backend, device, ops, relative=False, base=False, kind="crash"
) -> bool:
    """Stream two batches (after a batch ingest if ``base``), fault
    ``device`` of back-end node 3 after ``ops`` operations (counted from
    now if ``relative``) during compact(), reopen and check the published
    snapshot.  Returns whether compact() completed."""
    edges = small_graph(19)
    pairs = [(0, 39), (1, 38), (4, 35)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    if base:
        m.ingest(small_graph(29))
    m.ingest_stream(edges[:140])
    m.ingest_stream(edges[140:])
    want = distances(m, pairs)
    # Total degree over a fixed vertex set: duplicated adjacency (a fold
    # applied twice) would inflate it even where BFS levels cannot see.
    want_deg = m.query("degree", vertices=list(range(40))).result
    if relative:
        ops += m.cluster.nodes[3]._disks[device].ops
    m.set_fault_plan(
        FaultPlan([DiskFault(node=3, device=device, kind=kind, after_ops=ops)])
    )
    try:
        completed = not m.compact().failed_backends
    except Exception:
        completed = False
    m.close()

    m2 = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    try:
        assert m2.streaming.published == 2
        assert distances(m2, pairs) == want
        assert m2.query("degree", vertices=list(range(40))).result == want_deg
        assert m2.scrub().corrupt_frames == 0
    finally:
        m2.close()
    return completed


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ["fail", "crash"])
def test_crash_torn_publish_header(tmp_path, backend, k, kind):
    """A fault on each delta-log operation of compact() -- ``k`` = 0 is
    begin_compaction's header write, 1 finish_compaction's header write
    (after the base flush), 2 its truncate -- recovers the published
    snapshot without duplicating a folded edge."""
    d = str(tmp_path)
    edges = small_graph(23)
    pairs = [(0, 39), (2, 37)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    m.ingest_stream(edges[:140])
    m.ingest_stream(edges[140:])
    want = distances(m, pairs)
    want_deg = m.query("degree", vertices=list(range(40))).result
    # ``after_ops`` counts the device's lifetime operations: offset from now.
    dev = m.cluster.nodes[3]._disks["deltalog"]
    m.set_fault_plan(
        FaultPlan([DiskFault(node=3, device="deltalog", kind=kind,
                             after_ops=dev.ops + k)])
    )
    try:
        m.compact()
    except Exception:
        pass
    m.close()
    m2 = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    try:
        assert m2.streaming.published == 2
        assert distances(m2, pairs) == want
        assert m2.query("degree", vertices=list(range(40))).result == want_deg
        assert m2.scrub().corrupt_frames == 0
    finally:
        m2.close()


@pytest.mark.parametrize("checksums, token", [(True, 0), (False, None)])
def test_grdb_commit_token_needs_the_journaled_flush(checksums, token):
    """Only a checksummed grDB has a durable commit counter; without one an
    interrupted compaction aborts (``None``), it never compares a 0."""
    m = deploy("grDB", checksums=checksums)
    try:
        assert [db.commit_token() for db in m.dbs] == [token, token]
    finally:
        m.close()


def test_recovery_replays_pending_batches(tmp_path):
    """Close + reopen restores the published snapshot from the delta logs."""
    d = str(tmp_path)
    edges = small_graph(29)
    pairs = [(0, 39), (1, 38)]
    m = deploy("grDB", storage_dir=d)
    m.ingest_stream(edges[:100])
    m.ingest_stream(edges[100:])
    want = distances(m, pairs)
    m.close()
    m2 = deploy("grDB", storage_dir=d)
    try:
        assert m2.streaming.published == 2
        assert distances(m2, pairs) == want
    finally:
        m2.close()


def test_deltalog_truncates_torn_tail(tmp_path):
    """Unit-level: garbage after the last commit is truncated at recovery."""
    from repro.simcluster import NodeSpec, SimNode

    node = SimNode(0, NodeSpec(), storage_dir=str(tmp_path))
    try:
        dev = node.disk("deltalog")
        log = DeltaLog(dev)
        log.append(1, np.array([[1, 2], [3, 4]], dtype=np.int64))
        tail = dev.size()
        dev.write(tail, b"\x99" * 37)  # torn next append
        log2 = DeltaLog(dev)
        assert log2.committed == 1
        assert [seq for seq, _ in log2.pending] == [1]
        assert dev.size() == tail  # debris truncated
        assert tail >= RECORD_START
    finally:
        node.close()


def test_deltalog_refuses_an_append_inside_a_compaction_intent(tmp_path):
    """Finishing a compaction truncates the record area, so a batch appended
    between ``begin_compaction`` and ``finish_compaction`` would survive in
    memory and vanish on disk: the append is refused instead."""
    from repro.simcluster import NodeSpec, SimNode

    node = SimNode(0, NodeSpec(), storage_dir=str(tmp_path))
    try:
        dev = node.disk("deltalog")
        log = DeltaLog(dev)
        for seq in (1, 2):
            log.append(seq, np.array([[seq, seq + 10]], dtype=np.int64))
        target = log.begin_compaction(None)
        with pytest.raises(GraphStorageException, match="compaction intent"):
            log.append(3, np.array([[3, 13]], dtype=np.int64))
        log.finish_compaction(target)
        log.append(3, np.array([[3, 13]], dtype=np.int64))
        assert [seq for seq, _ in DeltaLog(dev).pending] == [3]
    finally:
        node.close()


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
def test_read_repair_on_a_streaming_deployment_keeps_later_batches(tmp_path, backend):
    """An in-place rebuild stores the visible adjacency into the new base, so
    its delta log restarts as compacted through the published snapshot and
    a fresh overlay takes the later batches: answers stay exact after the
    next batch, after ``compact()`` and after a reopen, and no entry lands
    twice."""
    edges = pubmed_like(300, seed=7)
    n = len(edges)
    b0, b1, b2 = edges[: n // 3], edges[n // 3 : 2 * n // 3], edges[2 * n // 3 :]
    pairs = [(s, d) for s in (1, 4, 7, 10, 13) for d in range(2, 300, 27)]
    vertices = np.unique(edges).tolist()
    kw = dict(num_backends=3, replication=2, cache_blocks=0)

    def answers(m):
        reports = [m.query_bfs(s, d) for s, d in pairs]
        reports.append(m.query("degree", vertices=vertices))
        return [r.result for r in reports], [r.partial for r in reports]

    def entries(m):
        return [int(db.degree_many(db.local_vertices()).sum()) for db in m.dbs]

    ref = deploy(backend, storage_dir=str(tmp_path / "ref"), **kw)
    try:
        ref.ingest(b0)
        ref.ingest_stream(b1)
        ref.ingest_stream(b2)
        want, _ = answers(ref)
        ref.compact()
        want_entries = entries(ref)
    finally:
        ref.close()
    d = str(tmp_path / "m")
    m = deploy(backend, storage_dir=d, **kw)
    try:
        m.ingest(b0)
        m.ingest_stream(b1)
        m.set_fault_plan(FaultPlan([DiskFault(node=2, kind="corrupt", at_time=0.0)]))
        for dev in list(m.cluster.nodes[2]._disks.values()):
            dev.read(0, 1)  # fire the rot on each of back-end 1's devices
        m.set_fault_plan(None)
        sr = m.scrub()
        assert sr.corrupt_backends == (1,)
        assert sr.repaired_frames == sr.corrupt_frames > 0
        m.ingest_stream(b2)
        assert answers(m) == (want, [False] * len(want))
        m.compact()
        assert answers(m) == (want, [False] * len(want))
        assert entries(m) == want_entries
    finally:
        m.close()
    m = deploy(backend, storage_dir=d, **kw)
    try:
        assert m.streaming.lagging == ()
        assert answers(m) == (want, [False] * len(want))
        assert entries(m) == want_entries
    finally:
        m.close()


def overlay_batches(m) -> list[list[tuple[int, list]]]:
    """Every back-end's overlay as ``(seq, edges)`` lists."""
    return [[(seq, e.tolist()) for seq, e in db._stream_overlay.batches] for db in m.dbs]


def assert_all_held_batches_published(m) -> None:
    """An unpinned read sees every batch an overlay holds: exact only while
    no overlay holds a batch past the one published horizon."""
    for batches in overlay_batches(m):
        assert max((seq for seq, _ in batches), default=0) <= m.streaming.published


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
def test_every_streaming_operation_leaves_held_batches_published(tmp_path, backend):
    """``ingest_stream``, an in-drain feed, the read-repair restart, a
    recovering reopen and ``compact()`` each return with every batch an
    overlay holds at or below ``StreamingState.published``."""
    edges = pubmed_like(300, seed=7)
    parts = np.array_split(edges, 5)
    kw = dict(num_backends=3, replication=2, cache_blocks=0)
    d = str(tmp_path)
    m = deploy(backend, storage_dir=d, **kw)
    try:
        m.ingest(parts[0])
        m.ingest_stream(parts[1])
        assert_all_held_batches_published(m)
        rep = m.query_many([(1, 2), (4, 29)], stream_batches=parts[2:4], stream_every=2)
        assert rep.stream_batches == 2 and m.streaming.published == 3
        assert_all_held_batches_published(m)
        m.set_fault_plan(FaultPlan([DiskFault(node=2, kind="corrupt", at_time=0.0)]))
        for dev in list(m.cluster.nodes[2]._disks.values()):
            dev.read(0, 1)  # fire the rot on each of back-end 1's devices
        m.set_fault_plan(None)
        assert m.scrub().corrupt_backends == (1,)
        assert m.dbs[1]._stream_overlay.batches == []  # restarted
        assert_all_held_batches_published(m)
        m.ingest_stream(parts[4])
        assert_all_held_batches_published(m)
    finally:
        m.close()
    m = deploy(backend, storage_dir=d, **kw)
    try:
        assert m.streaming.published == 4
        assert all(overlay_batches(m))  # pending batches recovered
        assert_all_held_batches_published(m)
        m.compact()
        assert not any(overlay_batches(m))
        assert_all_held_batches_published(m)
    finally:
        m.close()


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
def test_ingest_stream_and_an_in_drain_feed_append_alike(tmp_path, backend):
    """Both ingest paths append through ``StreamingState.append``: the same
    batches leave byte-identical delta logs and equal overlays on every
    back-end, and a reopen recovers equal pending lists."""
    edges = small_graph(17)
    batches = np.array_split(edges[100:], 3)

    def run(name, in_drain):
        d = str(tmp_path / name)
        m = deploy(backend, storage_dir=d, num_backends=3)
        try:
            m.ingest(edges[:100])
            if in_drain:
                m.query_many([(0, 39), (1, 38)], stream_batches=batches)
            else:
                for batch in batches:
                    m.ingest_stream(batch)
            F = m.config.num_frontends
            logs = [
                (dev := m.cluster.nodes[F + q].disk("deltalog")).backing.read(0, dev.size())
                for q in range(len(m.dbs))
            ]
            overlays = overlay_batches(m)
        finally:
            m.close()
        m = deploy(backend, storage_dir=d, num_backends=3)
        try:
            return logs, overlays, overlay_batches(m)
        finally:
            m.close()

    logs, overlays, recovered = run("ingest", False)
    assert run("drain", True) == (logs, overlays, recovered)
    assert [len(batches) for batches in overlays] == [3] * 3
    assert recovered == overlays


# ---------------------------------------------------------------------------
# Satellite: fault plans arm at any life-cycle point
# ---------------------------------------------------------------------------


def test_fault_plan_armed_before_streaming_ingest():
    """A plan installed at deployment fires during streamed batches."""
    plan = FaultPlan([DiskFault(node=2, device="deltalog", kind="fail",
                                after_ops=0)])
    m = deploy("HashMap", replication=2, plan=plan, num_backends=2)
    try:
        edges = small_graph(31)
        m.ingest_stream(edges[:100])
        report = m.ingest_stream(edges[100:])
        assert 1 in report.failed_backends
        assert 1 in m.queries.known_dead
        # Replica holders still answer exactly.
        ref = deploy("HashMap", replication=2, num_backends=2)
        try:
            ref.ingest_stream(edges[:100])
            ref.ingest_stream(edges[100:])
            pairs = [(0, 39), (1, 38)]
            got = [m.query_bfs(s, d) for s, d in pairs]
            assert [g.result for g in got] == distances(ref, pairs)
            assert not any(g.partial for g in got)
        finally:
            ref.close()
    finally:
        m.close()


def test_fault_plan_armed_between_batches():
    """set_fault_plan mid-stream hits only subsequent batches."""
    m = deploy("HashMap", replication=2)
    try:
        edges = small_graph(37)
        first = m.ingest_stream(edges[:100])
        assert first.failed_backends == ()
        m.set_fault_plan(
            FaultPlan([DiskFault(node=2, device="deltalog", kind="fail",
                                 after_ops=0)])
        )
        report = m.ingest_stream(edges[100:])
        assert 1 in report.failed_backends
    finally:
        m.close()


def test_invalid_fault_triggers_raise_config_error():
    with pytest.raises(ConfigError):
        DiskFault(node=0, kind="explode", at_time=0.0)
    with pytest.raises(ConfigError):
        DiskFault(node=0)  # no trigger at all
    with pytest.raises(ConfigError):
        DiskFault(node=0, at_time=-1.0)
    m = deploy("HashMap", streaming=False)
    try:
        with pytest.raises(ConfigError):
            m.set_fault_plan(FaultPlan([DiskFault(node=99, at_time=0.0)]))
    finally:
        m.close()


# ---------------------------------------------------------------------------
# Satellite: IngestReport accumulation
# ---------------------------------------------------------------------------


def test_ingest_report_absorb_sums():
    a = IngestReport(seconds=1.0, edges_ingested=10, entries_stored=20,
                     windows=2, per_backend_entries=[12, 8])
    b = IngestReport(seconds=0.5, edges_ingested=5, entries_stored=10,
                     windows=1, per_backend_entries=[4, 6],
                     lost_entries=3, degraded=True, failed_backends=(1,))
    a.absorb(b)
    assert a.seconds == 1.5
    assert a.edges_ingested == 15
    assert a.entries_stored == 30
    assert a.windows == 3
    assert a.per_backend_entries == [16, 14]
    assert a.lost_entries == 3
    assert a.degraded
    assert a.failed_backends == (1,)
    assert a.batches == 2


def test_last_ingest_accumulates_across_batches():
    m = deploy("Array")
    try:
        edges = small_graph(41)
        m.ingest_stream(edges[:80])
        m.ingest_stream(edges[80:])
        rep = m.last_ingest
        assert rep.batches == 2
        assert rep.edges_ingested == len(edges)
        assert sum(rep.per_backend_entries) == rep.entries_stored
        assert rep.entries_stored == 2 * len(edges)  # both directions
    finally:
        m.close()
