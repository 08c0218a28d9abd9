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
from repro.services.ingestion import IngestReport
from repro.simcluster import DiskFault, FaultPlan
from repro.storage.deltalog import RECORD_START, DeltaLog
from repro.util.errors import ConfigError

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
    d = str(tmp_path)
    devname = "streamdb" if backend == "StreamDB" else "grdb"
    edges = small_graph(19)
    pairs = [(0, 39), (1, 38), (4, 35)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    m.ingest_stream(edges[:140])
    m.ingest_stream(edges[140:])
    want = distances(m, pairs)
    # Total degree over a fixed vertex set: duplicated adjacency (a fold
    # applied twice) would inflate it even where BFS levels cannot see.
    want_deg = m.query("degree", vertices=list(range(40))).result
    m.set_fault_plan(
        FaultPlan([DiskFault(node=3, device=devname, kind="crash",
                             after_ops=ops)])
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


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
def test_crash_torn_publish_header(tmp_path, backend):
    """A crash on the header write of finish_compaction stays consistent."""
    d = str(tmp_path)
    edges = small_graph(23)
    pairs = [(0, 39), (2, 37)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    m.ingest_stream(edges[:140])
    m.ingest_stream(edges[140:])
    want = distances(m, pairs)
    # Fire on the delta log device itself mid-compaction: the kill lands
    # on begin_compaction / finish_compaction header writes.
    for ops in [0, 1, 2]:
        m.set_fault_plan(
            FaultPlan([DiskFault(node=3, device="deltalog", kind="crash",
                                 after_ops=ops)])
        )
        try:
            m.compact()
        except Exception:
            pass
        break
    m.close()
    m2 = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    try:
        assert m2.streaming.published == 2
        assert distances(m2, pairs) == want
        assert m2.scrub().corrupt_frames == 0
    finally:
        m2.close()


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
