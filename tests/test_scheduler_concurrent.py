"""Concurrent multi-query serving: equivalence, fairness, deadlines, faults.

The contract under test is the one ``QueryService.drain`` documents:
interleaving N queries level-by-level through one cluster run returns
answers bit-identical to running the same N queries back-to-back —
across backends, I/O knobs, replication, mid-drain device deaths, and
corrupt frames — while deadlines, admission control, and shared scans
only reshape the virtual timeline.
"""

import re
from pathlib import Path

import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import bfs_distance, bfs_levels
from repro.graphdb import GrDBFormat
from repro.graphdb.registry import BACKENDS, IN_MEMORY_BACKENDS
from repro.graphgen import CSRGraph, pubmed_like
from repro.services.vertexprog import VP_ANALYSES
from repro.simcluster import DiskFault, FaultPlan

EDGES = pubmed_like(400, seed=5)
GRAPH = CSRGraph.from_edges(EDGES)
PAIRS = [(0, 350), (1, 200), (2, 77), (3, 300), (5, 150), (7, 340)]

SMALL_GRDB = GrDBFormat(
    capacities=(2, 4, 16, 256),
    block_sizes=(1024, 1024, 1024, 4096),
    max_file_bytes=1 << 20,
)


def _deploy(backend="grDB", **kw):
    cfg = dict(
        num_backends=3,
        num_frontends=1,
        backend=backend,
        cache_blocks=4,
        grdb_format=SMALL_GRDB,
    )
    cfg.update(kw)
    return MSSG(MSSGConfig(**cfg))


def _assert_matches_sequential(mssg, pairs=PAIRS, **drain_kw):
    """Drained answers must be bit-identical to back-to-back queries."""
    seq = [mssg.query_bfs(s, d) for s, d in pairs]
    rep = mssg.query_many(pairs, **drain_kw)
    assert [r.result for r in rep.queries] == [r.result for r in seq]
    assert [r.levels for r in rep.queries] == [r.levels for r in seq]
    assert [r.directions for r in rep.queries] == [r.directions for r in seq]
    assert not any(r.partial for r in rep.queries)
    assert not any(r.deadline_exceeded for r in rep.queries)
    return seq, rep


class TestConcurrentEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_sequential_all_backends(self, backend):
        with _deploy(backend) as mssg:
            mssg.ingest(EDGES)
            _assert_matches_sequential(mssg)

    # One knob flipped at a time relative to the base deployment, on the
    # two backends whose sweeps the shared-scan board can batch.
    @pytest.mark.parametrize("backend", ["grDB", "StreamDB"])
    @pytest.mark.parametrize(
        "knobs",
        [
            {"batch_io": True},
            {"direction_opt": False},
            {"replication": 2},
            {"batch_io": True, "direction_opt": False, "replication": 2},
        ],
        ids=["batch_io", "no_direction", "replicated", "all"],
    )
    def test_matches_sequential_knobs(self, backend, knobs):
        with _deploy(backend, **knobs) as mssg:
            mssg.ingest(EDGES)
            _assert_matches_sequential(mssg)

    def test_sharing_off_matches_sharing_on(self):
        with _deploy("StreamDB") as mssg:
            mssg.ingest(EDGES)
            on = mssg.query_many(PAIRS, shared_scans=True)
            off = mssg.query_many(PAIRS, shared_scans=False)
            assert [r.result for r in on.queries] == [r.result for r in off.queries]
            assert on.shared_passes > 0 and on.shared_served > 0
            assert off.shared_passes == 0 and off.shared_served == 0

    def test_single_query_drain_matches_solo(self):
        # Every drain-capable analysis: level marks and the multiplexer around
        # a lone query change nothing a client can see, the clock included.
        all_params = {
            "bfs": dict(zip(("source", "dest"), PAIRS[0])),
            "pagerank": {"max_iters": 5},
        }
        for analysis in ("bfs",) + VP_ANALYSES:
            params = all_params.get(analysis, {})
            with _deploy("grDB") as mssg:
                mssg.ingest(EDGES)
                solo = mssg.query(analysis, **params)
            with _deploy("grDB") as mssg:  # a second store: same cold cache
                mssg.ingest(EDGES)
                if analysis == "bfs":
                    rep = mssg.query_many(PAIRS[:1])
                else:
                    rep = mssg.query_many([], analytics=[(analysis, params)])
            drained = rep.queries[0]
            for field in ("result", "levels", "edges_scanned", "partial"):
                assert getattr(drained, field) == getattr(solo, field), (analysis, field)
            assert repr(drained.seconds) == repr(solo.seconds), analysis
            # A lone query can never share a sweep with anyone.
            assert rep.shared_served == 0

    def test_empty_drain(self):
        with _deploy("HashMap") as mssg:
            mssg.ingest(EDGES)
            rep = mssg.queries.drain()
            assert rep.queries == [] and rep.seconds == 0.0


class TestAdmissionControl:
    def test_inflight_cap_queues_later_queries(self):
        with _deploy("grDB") as mssg:
            mssg.ingest(EDGES)
            seq, rep = _assert_matches_sequential(mssg, max_inflight=1)
            assert rep.queries[0].queue_seconds == 0.0
            assert all(r.queue_seconds > 0 for r in rep.queries[1:])
            # Serial admission means no round ever has two subscribers.
            assert rep.shared_served == 0

    def test_wide_admission_has_no_queueing(self):
        with _deploy("grDB") as mssg:
            mssg.ingest(EDGES)
            rep = mssg.query_many(PAIRS, max_inflight=64)
            assert all(r.queue_seconds == 0.0 for r in rep.queries)

    def test_invalid_inflight_rejected(self):
        from repro.util import ConfigError

        with _deploy("HashMap") as mssg:
            mssg.ingest(EDGES)
            with pytest.raises(ConfigError):
                mssg.query_many(PAIRS, max_inflight=0)


class TestDeadlines:
    def test_slow_tenant_cut_off_fast_tenant_unharmed(self):
        # The slow tenant runs an exhaustive traversal (unreachable dest);
        # its microscopic deadline expires after the first scheduling
        # round, so it must come back partial at a level boundary while
        # the fast tenant's one-hop query completes exactly as if alone.
        source = 0
        ecc = int(max(bfs_levels(GRAPH, source)))
        assert ecc >= 3, "graph too shallow to observe a mid-search cutoff"
        fast_pair = PAIRS[2]
        want_fast = bfs_distance(GRAPH, *fast_pair)
        with _deploy("grDB") as mssg:
            mssg.ingest(EDGES)
            svc = mssg.queries
            svc.submit(source, -1, tenant="slow", deadline=1e-9)
            svc.submit(*fast_pair, tenant="fast")
            rep = svc.drain()
            slow, fast = rep.queries
            assert slow.tenant == "slow" and fast.tenant == "fast"
            assert slow.deadline_exceeded
            assert slow.partial
            assert slow.result is None
            assert slow.levels < ecc + 1  # cut off before the full traversal
            assert not fast.deadline_exceeded
            assert not fast.partial
            assert fast.result == want_fast

    def test_generous_deadline_changes_nothing(self):
        with _deploy("StreamDB") as mssg:
            mssg.ingest(EDGES)
            _assert_matches_sequential(mssg, deadline=1e9)

    def test_deadline_after_natural_completion_is_clean(self):
        # A query that finishes in its first rounds must not be flagged
        # just because the drain outlived its deadline.
        with _deploy("HashMap") as mssg:
            mssg.ingest(EDGES)
            rep = mssg.query_many(PAIRS, deadline=1e9)
            assert not any(r.deadline_exceeded for r in rep.queries)


class TestFaultsDuringDrain:
    def test_mid_drain_backend_kill_preserves_answers(self):
        with _deploy("grDB", replication=2) as healthy:
            healthy.ingest(EDGES)
            want = [healthy.query_bfs(s, d).result for s, d in PAIRS]
        with _deploy("grDB", replication=2) as mssg:
            mssg.ingest(EDGES)
            # Back-end 0's disks die a moment into the drain — mid-round,
            # with several queries in flight.
            mssg.set_fault_plan(
                FaultPlan([DiskFault(node=1, at_time=1e-4)])
            )
            rep = mssg.query_many(PAIRS)
            assert [r.result for r in rep.queries] == want
            assert not any(r.partial for r in rep.queries)
            assert sum(r.failovers for r in rep.queries) >= 1
            assert any(r.device_failures for r in rep.queries)

    def test_corrupt_frame_in_shared_round_read_repairs_once(self):
        with _deploy("StreamDB", replication=2, checksums=True) as healthy:
            healthy.ingest(EDGES)
            want = [healthy.query_bfs(s, d).result for s, d in PAIRS]
        with _deploy("StreamDB", replication=2, checksums=True) as mssg:
            mssg.ingest(EDGES)
            mssg.set_fault_plan(
                FaultPlan([DiskFault(node=1, kind="corrupt", at_time=0.0)])
            )
            rep = mssg.query_many(PAIRS)
            assert [r.result for r in rep.queries] == want
            assert not any(r.partial for r in rep.queries)
            assert any(0 in r.corrupt_backends for r in rep.queries)
            # The façade read-repairs the damaged back-end once, after the
            # drain — not once per affected query.
            assert rep.repairs >= 1
            assert mssg.scrub().corrupt_frames == 0
            again = mssg.query_many(PAIRS)
            assert [r.result for r in again.queries] == want
            assert not any(r.corrupt_backends for r in again.queries)
            assert again.repairs == 0


class TestSharedScanAccounting:
    def test_streamdb_shares_log_replays(self):
        with _deploy("StreamDB") as mssg:
            mssg.ingest(EDGES)
            rep = mssg.query_many(PAIRS)
            # Each rank pays at most one replay per round; everyone else
            # in the round reads the published pass.
            assert rep.shared_passes >= 1
            assert rep.shared_served >= rep.shared_passes

    def test_pure_top_down_in_memory_has_nothing_to_share(self):
        # In-memory backends replay no log; with the hybrid off they issue
        # no bottom-up sweeps either, so the board never publishes a pass.
        # (With the hybrid *on* they do share bottom-up sweeps — that path
        # is covered by the equivalence tests above.)
        for backend in IN_MEMORY_BACKENDS:
            with _deploy(backend, direction_opt=False) as mssg:
                mssg.ingest(EDGES)
                rep = mssg.query_many(PAIRS)
                assert rep.shared_passes == 0 and rep.shared_served == 0


def test_no_backend_constructs_private_lru_directly():
    """Every block cache must come from ``make_block_cache`` so the
    process-wide pool can interpose; direct ``LRUBlockCache(...)``
    construction outside its home module bypasses the factory."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if path.name != "blockcache.py"
        and re.search(r"\bLRUBlockCache\(", path.read_text())
    ]
    assert offenders == []
