"""Failure-injection and error-propagation tests.

A distributed storage framework is defined as much by how it fails as by
how it succeeds: these tests corrupt on-disk state, raise inside rank
programs and filters, and drive engines into their guard rails, asserting
that every failure surfaces as the right exception instead of silent
corruption.
"""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.datacutter import DataCutterRuntime, Filter, FilterGraph
from repro.framework import _DECLUSTERERS
from repro.graphgen import pubmed_like
from repro.simcluster import (
    BlockDevice,
    DiskFault,
    FaultPlan,
    MemoryBacking,
    NodeSpec,
    SimCluster,
    SimNode,
)
from repro.storage import BTree, KVStore, PagedFile
from repro.util import (
    ConfigError,
    DeviceFailedError,
    GraphStorageException,
    PageFormatError,
    SimulationError,
    StorageEngineError,
)


class TestRankFailures:
    def test_exception_in_rank_program_propagates(self):
        cluster = SimCluster(nranks=2)

        def program(ctx):
            if ctx.rank == 1:
                raise RuntimeError("node 1 exploded")
            yield from ctx.comm.barrier()

        with pytest.raises(RuntimeError, match="node 1 exploded"):
            cluster.run(program)

    def test_invalid_yield_rejected(self):
        cluster = SimCluster(nranks=1)

        def program(ctx):
            yield "not-an-effect"

        with pytest.raises(SimulationError, match="invalid effect"):
            cluster.run(program)

    def test_exception_in_filter_propagates(self):
        class Bomb(Filter):
            outputs = ("out",)

            def process(self, ctx):
                raise ValueError("filter bomb")

        class Sink(Filter):
            inputs = ("in",)

            def process(self, ctx):
                yield from ctx.read("in")

        g = FilterGraph()
        g.add_filter("bomb", Bomb, [0])
        g.add_filter("sink", Sink, [1])
        g.connect("bomb", "out", "sink", "in")
        with pytest.raises(ValueError, match="filter bomb"):
            DataCutterRuntime(g, SimCluster(nranks=2)).run()


class TestCorruptedStorage:
    def test_btree_detects_bad_node_type(self):
        dev = BlockDevice()
        tree = BTree(PagedFile(dev, 256), cache_pages=0)
        tree.put(b"k", b"v")
        # Stomp the root page's type byte on disk.
        root_offset = tree.root * 256
        dev.write(root_offset, b"\x7f")
        with pytest.raises(PageFormatError):
            tree.get(b"k")

    def test_btree_detects_bad_meta_magic(self):
        dev = BlockDevice()
        tree = BTree(PagedFile(dev, 256), cache_pages=0)
        tree.put(b"k", b"v")
        dev.write(0, b"\x00\x00\x00\x00")
        with pytest.raises(PageFormatError):
            BTree(PagedFile(dev, 256))

    def test_btree_detects_truncated_overflow_chain(self):
        dev = BlockDevice()
        tree = BTree(PagedFile(dev, 256), cache_pages=0)
        tree.put(b"big", b"x" * 1000)  # spills to overflow pages
        # Zero a chunk-length field deep in the chain: lengths mismatch.
        # Find an overflow page: scan pages for non-node types.
        pf = tree.pages
        for page_no in range(1, pf.npages):
            raw = pf.read_page(page_no)
            if raw[0] not in (0x4C, 0x49) and raw != b"\x00" * 256:
                dev.write(page_no * 256 + 8, (0).to_bytes(4, "big"))
                break
        with pytest.raises(PageFormatError):
            tree.get(b"big")

    def test_grdb_rejects_cycle_in_chain(self):
        from repro.graphdb import GrDB, GrDBFormat
        from repro.graphdb.grdb.format import encode_pointer

        fmt = GrDBFormat(capacities=(2, 4), block_sizes=(128, 128), max_file_bytes=1024)
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=fmt, clock=node.clock)
        db.store_edges([(0, 1), (0, 2), (0, 3)])  # chains into level 1
        # Point the level-1 tail back at itself.
        chain = db.chain_of(0)
        level, sb = chain[-1]
        slots = db._read_slots(level, sb).copy()
        slots[-1] = encode_pointer(level, sb)
        db._write_slots(level, sb, slots)
        db.invalidate_tail_memo()
        with pytest.raises(GraphStorageException):
            db.get_adjacency(0)


class TestEngineGuards:
    def test_kvstore_oversized_key(self):
        s = KVStore(BlockDevice(), page_size=256)
        with pytest.raises(StorageEngineError):
            s.put(b"k" * 200, b"v")

    def test_pagedfile_rejects_mismatched_reopen(self):
        dev = BlockDevice()
        pf = PagedFile(dev, 64)
        pf.allocate_page()
        # Reopen with a different page size silently misinterprets pages;
        # the B-tree layer catches it via its format checks.
        tree_dev = BlockDevice()
        tree = BTree(PagedFile(tree_dev, 256))
        tree.put(b"a", b"b")
        tree.flush()
        # The meta page's magic survives a smaller-page reinterpretation,
        # but the first node access trips the per-page type check.
        reopened = BTree(PagedFile(tree_dev, 128))
        with pytest.raises(PageFormatError):
            reopened.get(b"a")

    def test_store_edges_wrong_shape(self):
        from .helpers import make_store

        node = SimNode(0, NodeSpec())
        db = make_store("HashMap", node)
        with pytest.raises(ValueError):
            db.store_edges(np.array([1, 2, 3]))  # not reshapable to (E, 2)


class TestMemoryBackingEdge:
    def test_zero_length_ops(self):
        m = MemoryBacking()
        assert m.read(0, 0) == b""
        m.write(5, b"")
        assert m.size() == 0  # empty write does not extend


class TestFaultInjection:
    """Unit-level behavior of DiskFault / FaultPlan / BlockDevice hooks."""

    def test_time_fault_fires_and_is_sticky(self):
        node = SimNode(0, NodeSpec(), fault_plan=FaultPlan.kill_node(0, at_time=0.0))
        dev = node.disk()
        with pytest.raises(DeviceFailedError):
            dev.read(0, 16)
        assert dev.failed
        assert dev.stats.failures == 1
        with pytest.raises(DeviceFailedError):
            dev.write(0, b"x")  # still dead; failure counted once
        assert dev.stats.failures == 1

    def test_after_ops_fault(self):
        plan = FaultPlan([DiskFault(node=0, after_ops=3)])
        dev = SimNode(0, NodeSpec(), fault_plan=plan).disk()
        for i in range(3):
            dev.write(i * 8, b"ok")
        with pytest.raises(DeviceFailedError):
            dev.read(0, 2)
        assert dev.ops == 3  # the fourth operation never completed

    def test_readv_checks_faults(self):
        plan = FaultPlan([DiskFault(node=0, after_ops=0)])
        dev = SimNode(0, NodeSpec(), fault_plan=plan).disk()
        with pytest.raises(DeviceFailedError):
            dev.readv([(0, 8), (16, 8)])

    def test_slow_fault_multiplies_latency(self):
        def read_cost(plan):
            node = SimNode(0, NodeSpec(), fault_plan=plan)
            dev = node.disk()
            dev.write(0, b"z" * 4096)
            t0 = node.clock.now
            dev.read(0, 4096)
            return node.clock.now - t0

        healthy = read_cost(None)
        slow = read_cost(
            FaultPlan([DiskFault(node=0, kind="slow", at_time=0.0, slow_factor=10.0)])
        )
        assert healthy > 0
        assert slow == pytest.approx(10.0 * healthy)

    def test_disarmed_plan_is_inert_until_armed(self):
        plan = FaultPlan.kill_node(0, at_time=0.0)
        plan.disarm()
        dev = SimNode(0, NodeSpec(), fault_plan=plan).disk()
        dev.write(0, b"fine")  # scheduled fault held back
        plan.arm()
        with pytest.raises(DeviceFailedError):
            dev.read(0, 4)

    def test_fault_matches_device_prefix_and_node(self):
        plan = FaultPlan([DiskFault(node=0, device="grdb", at_time=0.0)])
        node = SimNode(0, NodeSpec(), fault_plan=plan)
        with pytest.raises(DeviceFailedError):
            node.disk("grdb_L0").write(0, b"x")
        node.disk("wal").write(0, b"x")  # different prefix: unaffected
        other = SimNode(1, NodeSpec(), fault_plan=plan)
        other.disk("grdb_L0").write(0, b"x")  # different node: unaffected

    def test_clearing_plan_cancels_pending_but_not_dead(self):
        plan = FaultPlan([DiskFault(node=0, after_ops=1)])
        node = SimNode(0, NodeSpec(), fault_plan=plan)
        dev = node.disk()
        dev.write(0, b"a")
        node.install_fault_plan(None)  # cancel before the trigger
        dev.read(0, 1)  # would have failed under the plan
        node.install_fault_plan(FaultPlan.kill_node(0, at_time=0.0))
        with pytest.raises(DeviceFailedError):
            dev.read(0, 1)
        node.install_fault_plan(None)
        with pytest.raises(DeviceFailedError):
            dev.read(0, 1)  # hard failure is not repaired by clearing

    def test_invalid_faults_rejected(self):
        with pytest.raises(ConfigError):
            DiskFault(node=0)  # no trigger at all
        with pytest.raises(ConfigError):
            DiskFault(node=0, kind="melt", at_time=0.0)
        with pytest.raises(ConfigError):
            DiskFault(node=0, at_time=-1.0)
        with pytest.raises(ConfigError):
            DiskFault(node=0, after_ops=-5)
        with pytest.raises(ConfigError):
            DiskFault(node=0, kind="slow", at_time=0.0, slow_factor=0.5)

    def test_cluster_wide_install_covers_existing_devices(self):
        cluster = SimCluster(nranks=2)

        def touch(ctx):
            ctx.node.disk().write(0, b"warm")
            yield from ctx.comm.barrier()

        cluster.run(touch)
        cluster.install_fault_plan(FaultPlan.kill_node(1, at_time=0.0))

        def probe(ctx):
            yield from ctx.comm.barrier()
            try:
                ctx.node.disk().read(0, 4)
                return "ok"
            except DeviceFailedError:
                return "dead"

        assert cluster.run(probe) == ["ok", "dead"]


class TestReplicatedDeclustering:
    def _rows(self, arr):
        return {tuple(r) for r in np.asarray(arr).tolist()}

    def test_assign_rotates_base_partitions(self):
        from repro.services.declustering import ReplicatedDeclusterer, VertexRoundRobin

        window = np.column_stack([np.arange(30), np.arange(30) + 100])
        base = VertexRoundRobin(3)
        rep = ReplicatedDeclusterer(VertexRoundRobin(3), replication=2)
        plain = base.assign(window, 0)
        doubled = rep.assign(window, 0)
        for q in range(3):
            want = self._rows(plain[q]) | self._rows(plain[(q - 1) % 3])
            assert self._rows(doubled[q]) == want

    def test_replication_one_matches_base(self):
        from repro.services.declustering import ReplicatedDeclusterer, VertexRoundRobin

        window = np.column_stack([np.arange(20), np.arange(20) + 50])
        rep = ReplicatedDeclusterer(VertexRoundRobin(4), replication=1)
        for mine, base in zip(rep.assign(window, 0), VertexRoundRobin(4).assign(window, 0)):
            assert self._rows(mine) == self._rows(base)

    def test_owner_of_reports_primary_and_chain_rotates(self):
        from repro.services.declustering import ReplicatedDeclusterer, VertexRoundRobin

        rep = ReplicatedDeclusterer(VertexRoundRobin(4), replication=3)
        assert rep.owner_of(np.array([5, 8])).tolist() == [1, 0]
        assert rep.replica_chain(3) == [3, 0, 1]
        assert rep.owner_known

    def test_validation(self):
        from repro.services.declustering import ReplicatedDeclusterer, VertexRoundRobin

        with pytest.raises(ConfigError):
            ReplicatedDeclusterer(VertexRoundRobin(3), replication=0)
        with pytest.raises(ConfigError):
            ReplicatedDeclusterer(VertexRoundRobin(3), replication=4)
        with pytest.raises(ConfigError):
            ReplicatedDeclusterer(
                ReplicatedDeclusterer(VertexRoundRobin(3), 2), replication=2
            )

    def test_config_replication_bounds(self):
        with pytest.raises(ConfigError):
            MSSGConfig(num_backends=2, replication=3)
        with pytest.raises(ConfigError):
            MSSGConfig(num_backends=2, replication=0)


# --- End-to-end failover: the acceptance scenario of the fault-tolerance PR.
#
# A small graph with a tiny block cache (so queries are forced onto the
# simulated devices — a graph that fits in cache never touches a disk and
# faults can't fire), three back-ends, one front-end.  Node index of
# back-end q is 1 + q.
_FT_EDGES = pubmed_like(600, seed=7)
_FT_SOURCE, _FT_DEST = 3, 450


def _ft_query(
    replication,
    kill=(),
    at_time=0.0,
    pipelined=False,
    declustering="vertex-rr",
    backend="grDB",
    cache_blocks=4,
):
    mssg = MSSG(
        MSSGConfig(
            num_backends=3,
            num_frontends=1,
            backend=backend,
            declustering=declustering,
            replication=replication,
            cache_blocks=cache_blocks,
        )
    )
    try:
        report = mssg.ingest(_FT_EDGES)
        if kill:
            plan = FaultPlan(
                [DiskFault(node=1 + q, at_time=at_time) for q in kill]
            )
            mssg.set_fault_plan(plan)
        query = mssg.query_bfs(_FT_SOURCE, _FT_DEST, pipelined=pipelined)
        return report, query
    finally:
        mssg.close()


class TestQueryFailover:
    def test_ingest_reports_replication(self):
        ingest, _ = _ft_query(replication=2)
        single, _ = _ft_query(replication=1)
        assert ingest.replication == 2 and single.replication == 1
        assert ingest.entries_stored == 2 * single.entries_stored

    def test_failover_preserves_result(self):
        _, healthy = _ft_query(replication=2)
        _, faulted = _ft_query(replication=2, kill=[0])
        assert healthy.result is not None
        assert faulted.result == healthy.result
        assert faulted.failovers >= 1
        assert faulted.device_failures == 1
        assert not faulted.partial

    def test_failover_preserves_result_pipelined(self):
        _, healthy = _ft_query(replication=2, pipelined=True)
        _, faulted = _ft_query(replication=2, kill=[0], pipelined=True)
        assert faulted.result == healthy.result
        assert faulted.failovers >= 1
        assert not faulted.partial

    def test_unreplicated_fault_degrades_to_partial(self):
        # Cache disabled so the query must touch the dead device: with
        # compressed adjacency (the default) this tiny graph is otherwise
        # fully cache-resident and the fault would never fire.
        _, report = _ft_query(replication=1, kill=[0], cache_blocks=0)
        assert report.partial
        assert report.device_failures == 1
        assert report.dropped_vertices > 0

    def test_exhausted_replica_chain_degrades_to_partial(self):
        # Back-ends 0 and 1 hold both copies of partition 0; killing both
        # exhausts the chain, which must degrade — not raise.
        _, report = _ft_query(replication=2, kill=[0, 1])
        assert report.partial
        assert report.device_failures == 2

    def test_device_death_mid_bfs(self):
        _, healthy = _ft_query(replication=2)
        _, faulted = _ft_query(
            replication=2, kill=[0], at_time=healthy.seconds * 0.5
        )
        assert faulted.result == healthy.result
        assert faulted.device_failures == 1
        assert not faulted.partial

    def test_broadcast_mode_failover(self):
        _, healthy = _ft_query(replication=2, declustering="edge-rr")
        _, faulted = _ft_query(replication=2, declustering="edge-rr", kill=[0])
        assert faulted.result == healthy.result
        assert not faulted.partial
        _, single = _ft_query(replication=1, declustering="edge-rr", kill=[0])
        assert single.partial

    def test_berkeleydb_backend_failover(self):
        _, healthy = _ft_query(replication=2, backend="BerkeleyDB")
        _, faulted = _ft_query(replication=2, backend="BerkeleyDB", kill=[0])
        assert faulted.result == healthy.result
        assert faulted.failovers >= 1
        assert not faulted.partial

    def test_ingestion_time_fault_no_longer_raises(self):
        # Ingestion is fault-tolerant now: a plan live during ingest is
        # flagged on the report instead of surfacing as DeviceFailedError.
        mssg = MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=1,
                cache_blocks=4,
                fault_plan=FaultPlan.kill_node(1, at_time=0.0),
            )
        )
        try:
            report = mssg.ingest(_FT_EDGES)
            assert report.degraded
            assert report.failed_backends == (0,)
            # Unreplicated: the dead owner was the only holder.
            assert report.lost_entries > 0
            assert report.per_backend_entries[0] == 0
        finally:
            mssg.close()


_ALL_DECLUSTERERS = sorted(_DECLUSTERERS)


def _backend_contents(mssg):
    """Per-back-end multiset of stored (vertex, neighbor) entries."""
    out = []
    for db in mssg.dbs:
        rows = []
        for v in db.local_vertices():
            for n in db.get_adjacency(int(v)):
                rows.append((int(v), int(n)))
        out.append(sorted(rows))
    return out


class TestIngestionDeterminism:
    """A declusterer assigns each window from its edges and its global
    stream offset alone, so partitions are identical for every front-end
    count and reader-copy schedule, for every strategy."""

    @pytest.mark.parametrize("declustering", _ALL_DECLUSTERERS)
    @pytest.mark.parametrize("replication", [1, 2])
    def test_partitions_independent_of_frontend_count(self, declustering, replication):
        edges = pubmed_like(300, seed=3)

        def deploy(F):
            mssg = MSSG(
                MSSGConfig(
                    num_backends=3,
                    num_frontends=F,
                    backend="HashMap",
                    declustering=declustering,
                    replication=replication,
                    window_size=64,
                )
            )
            try:
                report = mssg.ingest(edges)
                return report.per_backend_entries, _backend_contents(mssg)
            finally:
                mssg.close()

        ref_counts, ref_contents = deploy(1)
        for F in (2, 4):
            counts, contents = deploy(F)
            assert counts == ref_counts, (declustering, F)
            assert contents == ref_contents, (declustering, F)


class TestIngestionStateReset:
    """Regression: a second ingest() of the same edges on one deployment
    assigns them exactly as the first did (edge round-robin restarts at
    stream offset 0 every ingest; a running counter used to shift it)."""

    @pytest.mark.parametrize("declustering", ["edge-rr"])
    def test_second_ingest_assigns_like_the_first(self, declustering):
        edges = pubmed_like(200, seed=5)
        mssg = MSSG(
            MSSGConfig(num_backends=3, backend="HashMap", declustering=declustering)
        )
        try:
            first = mssg.ingest(edges)
            second = mssg.ingest(edges)
            assert second.per_backend_entries == first.per_backend_entries
        finally:
            mssg.close()


class TestIngestionFailover:
    """Tentpole: a back-end dying mid-ingest degrades instead of raising."""

    def _deploy(self, replication, at_time=0.01, declustering="vertex-rr"):
        return MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=1,
                cache_blocks=4,
                replication=replication,
                declustering=declustering,
                fault_plan=FaultPlan.kill_node(1, at_time=at_time),
            )
        )

    def test_replicated_kill_loses_nothing(self):
        mssg = self._deploy(replication=2)
        try:
            report = mssg.ingest(_FT_EDGES)
            assert report.degraded
            assert report.failed_backends == (0,)
            # Every shard bound for the dead back-end reached the surviving
            # member of its chain.
            assert report.lost_entries == 0
        finally:
            mssg.close()

    def test_replicated_kill_preserves_query_answer(self):
        _, healthy = _ft_query(replication=2)
        mssg = self._deploy(replication=2)
        try:
            mssg.ingest(_FT_EDGES)
            faulted = mssg.query_bfs(_FT_SOURCE, _FT_DEST)
            assert faulted.result == healthy.result
            assert not faulted.partial
        finally:
            mssg.close()

    def test_unreplicated_kill_counts_losses(self):
        # Kill early enough to land between window deliveries: compressed
        # adjacency (the default) stores windows faster, and a death after
        # the last delivery degrades the flush without losing entries.
        mssg = self._deploy(replication=1, at_time=0.002)
        try:
            report = mssg.ingest(_FT_EDGES)
            assert report.degraded
            assert report.failed_backends == (0,)
            assert report.lost_entries > 0
        finally:
            mssg.close()

    def test_whole_chain_dead_drops_shards(self):
        # Both holders of partition 0's chain die: its shards are lost
        # even with replication.
        mssg = MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=1,
                cache_blocks=4,
                replication=2,
                fault_plan=FaultPlan(
                    [DiskFault(node=1, at_time=0.0), DiskFault(node=2, at_time=0.0)]
                ),
            )
        )
        try:
            report = mssg.ingest(_FT_EDGES)
            assert report.degraded
            assert set(report.failed_backends) == {0, 1}
            assert report.lost_entries > 0
        finally:
            mssg.close()


class TestRebalance:
    """Tentpole: MSSG.rebalance() restores effective replication to k and
    post-rebalance queries pay zero failover rounds."""

    @pytest.mark.parametrize("declustering", ["vertex-rr", "vertex-hash"])
    def test_restores_replication_and_failover_free_queries(self, declustering):
        _, healthy = _ft_query(replication=2, declustering=declustering)
        mssg = MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=1,
                cache_blocks=4,
                replication=2,
                declustering=declustering,
                fault_plan=FaultPlan.kill_node(1, at_time=0.01),
            )
        )
        try:
            report = mssg.ingest(_FT_EDGES)
            assert report.degraded and report.lost_entries == 0
            rb = mssg.rebalance()
            assert rb.dead_backends == (0,)
            assert rb.replication == 2
            assert rb.copies_restored >= 1
            assert rb.entries_copied > 0
            assert not rb.unrecoverable_partitions
            for pipelined in (False, True):
                q = mssg.query_bfs(_FT_SOURCE, _FT_DEST, pipelined=pipelined)
                assert q.result == healthy.result
                assert q.failovers == 0
                assert q.device_failures == 0
                assert not q.partial
        finally:
            mssg.close()

    def test_noop_when_healthy(self):
        mssg = MSSG(MSSGConfig(num_backends=3, num_frontends=1, replication=2))
        try:
            mssg.ingest(_FT_EDGES)
            rb = mssg.rebalance()
            assert rb.dead_backends == ()
            assert rb.copies_restored == 0 and rb.entries_copied == 0
            assert rb.replication == 2
        finally:
            mssg.close()

    def test_owner_unknown_declustering_rejected(self):
        mssg = MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=1,
                cache_blocks=4,
                replication=2,
                declustering="edge-rr",
                fault_plan=FaultPlan.kill_node(1, at_time=0.0),
            )
        )
        try:
            mssg.ingest(_FT_EDGES)
            with pytest.raises(ConfigError, match="owner-unknown"):
                mssg.rebalance()
        finally:
            mssg.close()

    def test_unreplicated_death_is_unrecoverable(self):
        mssg = MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=1,
                cache_blocks=4,
                replication=1,
                fault_plan=FaultPlan.kill_node(1, at_time=0.0),
            )
        )
        try:
            mssg.ingest(_FT_EDGES)
            rb = mssg.rebalance()
            assert rb.unrecoverable_partitions == (0,)
            assert rb.copies_restored == 0
            # Queries keep working, degraded, with the death pre-recorded.
            q = mssg.query_bfs(_FT_SOURCE, _FT_DEST)
            assert q.partial
        finally:
            mssg.close()

    def test_fault_summary_tracks_repair(self):
        from repro.experiments import fault_summary

        mssg = MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=1,
                cache_blocks=4,
                replication=2,
                fault_plan=FaultPlan.kill_node(1, at_time=0.01),
            )
        )
        try:
            mssg.ingest(_FT_EDGES)
            before = fault_summary(mssg)
            assert before.dead_backends == (0,)
            assert before.degraded_ingest
            assert before.effective_replication == 2  # chains not yet edited
            mssg.rebalance()
            after = fault_summary(mssg)
            assert after.effective_replication == 2
            assert after.faults_fired >= 1
        finally:
            mssg.close()
