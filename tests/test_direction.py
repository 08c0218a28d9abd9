"""Direction-optimizing (push/pull hybrid) BFS tests.

The hybrid must be an *access-plan* change only: for every backend, batch
mode, replication factor, and forced direction schedule, reported BFS
levels must be bit-identical to the sequential reference and to the pure
top-down search.  The controller itself is tested as a unit (it is
rank-uniform by construction, so one instance models every rank).
"""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import (
    BOTTOM_UP,
    TOP_DOWN,
    DirectionConfig,
    DirectionController,
    bfs_distance,
    sample_queries_by_distance,
)
from repro.bfs.direction import merge_level_stats
from repro.experiments import Deployment
from repro.graphdb.metadata import InMemoryMetadata
from repro.graphgen import CSRGraph, pubmed_like
from repro.simcluster import FaultPlan

BACKENDS = ("Array", "HashMap", "MySQL", "BerkeleyDB", "StreamDB", "grDB")

EDGES = pubmed_like(900, seed=7)
GRAPH = CSRGraph.from_edges(EDGES)
#: Long-path queries: scale-free mid-BFS fringes cover most of the graph,
#: so the heuristic actually goes bottom-up on these.
QUERIES = sample_queries_by_distance(GRAPH, 3, seed=0, min_distance=3)


def make_mssg(backend="grDB", num_backends=4, replication=1, **kw):
    mssg = MSSG(
        MSSGConfig(
            num_backends=num_backends,
            backend=backend,
            replication=replication,
            **kw,
        )
    )
    mssg.ingest(EDGES)
    return mssg


class TestDirectionConfig:
    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(ValueError):
            DirectionConfig(num_vertices=0)

    def test_rejects_unknown_schedule_entry(self):
        with pytest.raises(ValueError):
            DirectionConfig(num_vertices=10, schedule=("sideways",))


class TestDirectionController:
    def test_bootstrap_is_top_down(self):
        ctl = DirectionController(DirectionConfig(num_vertices=1000))
        assert ctl.decide(1) == TOP_DOWN

    def test_switches_bottom_up_when_fringe_outweighs_unvisited(self):
        cfg = DirectionConfig(num_vertices=1000, alpha=1.0 / 14.0)
        ctl = DirectionController(cfg)
        assert ctl.decide(1) == TOP_DOWN
        # 10k stored edges; the new fringe's out-degree sum (800) exceeds
        # alpha * remaining (9200 / 14 ~ 657) -> pull next level.
        ctl.observe(total_new=100, fringe_degree=800, edges_stored=10_000)
        assert ctl.decide(2) == BOTTOM_UP

    def test_stays_top_down_on_small_fringe(self):
        ctl = DirectionController(DirectionConfig(num_vertices=1000))
        ctl.decide(1)
        ctl.observe(total_new=3, fringe_degree=10, edges_stored=10_000)
        assert ctl.decide(2) == TOP_DOWN

    def test_switches_back_when_fringe_shrinks(self):
        cfg = DirectionConfig(num_vertices=2400, beta=24.0)
        ctl = DirectionController(cfg)
        ctl.decide(1)
        ctl.observe(total_new=500, fringe_degree=9000, edges_stored=20_000)
        assert ctl.decide(2) == BOTTOM_UP
        # Fringe of 500 >= 2400/24 = 100: hysteresis keeps pulling.
        ctl.observe(total_new=500, fringe_degree=5000)
        assert ctl.decide(3) == BOTTOM_UP
        # Fringe collapses below n/beta: push again.
        ctl.observe(total_new=40, fringe_degree=200)
        assert ctl.decide(4) == TOP_DOWN

    def test_unvisited_estimate_never_negative(self):
        ctl = DirectionController(DirectionConfig(num_vertices=100))
        ctl.decide(1)
        ctl.observe(total_new=50, fringe_degree=500, edges_stored=300)
        ctl.observe(total_new=10, fringe_degree=400)
        assert ctl._m_u == 0

    def test_forced_schedule_overrides_heuristic(self):
        cfg = DirectionConfig(
            num_vertices=100, schedule=(TOP_DOWN, TOP_DOWN, BOTTOM_UP)
        )
        ctl = DirectionController(cfg)
        got = [ctl.decide(level) for level in (1, 2, 3, 4, 5)]
        # Levels past the schedule's end repeat its last entry.
        assert got == [TOP_DOWN, TOP_DOWN, BOTTOM_UP, BOTTOM_UP, BOTTOM_UP]
        assert ctl.history == got

    def test_merge_level_stats_elementwise(self):
        assert merge_level_stats((False, 1, 10, 100), (True, 2, 20, 200)) == (
            True,
            3,
            30,
            300,
        )


class TestUnvisitedLocal:
    def test_shrinks_monotonically_and_calls_source_once(self):
        visited = InMemoryMetadata()
        calls = []

        def local_vertices():
            calls.append(1)
            return np.arange(10, dtype=np.int64)

        assert visited.unvisited_local(local_vertices).tolist() == list(range(10))
        visited.set_many([2, 5], 1)
        assert visited.unvisited_local(local_vertices).tolist() == [
            0, 1, 3, 4, 6, 7, 8, 9,
        ]
        visited.set_many([0, 9], 2)
        assert visited.unvisited_local(local_vertices).tolist() == [1, 3, 4, 6, 7, 8]
        assert len(calls) == 1  # later levels re-filter the remainder


class TestHybridMatchesTopDown:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_identical_results(self, backend):
        with make_mssg(backend=backend) as mssg:
            for s, d, expect in QUERIES:
                on = mssg.query_bfs(s, d)
                off = mssg.query_bfs(s, d, direction_opt=False)
                assert on.result == expect
                assert off.result == expect
                # The hybrid really ran (telemetry) and pure top-down
                # really did not.
                assert BOTTOM_UP in on.directions
                assert off.directions == ()
                assert off.edges_examined == 0

    @pytest.mark.parametrize("batch_io", [False, True])
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_drivers_and_batch_modes(self, pipelined, batch_io):
        with make_mssg(backend="grDB", batch_io=batch_io) as mssg:
            for s, d, expect in QUERIES:
                on = mssg.query_bfs(s, d, pipelined=pipelined)
                off = mssg.query_bfs(s, d, pipelined=pipelined, direction_opt=False)
                assert on.result == expect == off.result
                assert BOTTOM_UP in on.directions

    @pytest.mark.parametrize("backend", ["grDB", "StreamDB", "BerkeleyDB"])
    def test_replicated_deployments(self, backend):
        with make_mssg(backend=backend, replication=2) as mssg:
            for s, d, expect in QUERIES:
                report = mssg.query_bfs(s, d)
                assert report.result == expect
                assert BOTTOM_UP in report.directions
                assert not report.partial

    def test_short_queries_stay_top_down(self):
        u, v = map(int, EDGES[0])
        with make_mssg(backend="HashMap") as mssg:
            report = mssg.query_bfs(u, v)
            assert report.result == 1
            # Level 1 always pushes (m_u unknown until the first allreduce).
            assert report.directions[:1] == (TOP_DOWN,)

    def test_unreachable_vertex(self):
        iso = int(EDGES.max()) + 0  # highest id; make a truly isolated one
        edges = np.vstack([EDGES, [[iso + 1, iso + 2]]])
        with MSSG(MSSGConfig(num_backends=4, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            report = mssg.query_bfs(int(EDGES[0, 0]), iso + 2)
            assert report.result is None

    def test_early_exit_accounting(self):
        """Bottom-up examines fewer entries than it would without early
        exit, and the split is reported."""
        with make_mssg(backend="HashMap") as mssg:
            s, d, expect = QUERIES[0]
            report = mssg.query_bfs(s, d)
            assert report.result == expect
            assert report.edges_examined > 0
            assert report.edges_skipped > 0


class TestForcedSchedules:
    def test_always_bottom_up(self):
        with make_mssg(backend="HashMap") as mssg:
            for s, d, expect in QUERIES:
                report = mssg.query_bfs(s, d, direction_schedule=(BOTTOM_UP,))
                assert report.result == expect
                assert set(report.directions) == {BOTTOM_UP}

    @pytest.mark.parametrize("switch_level", [2, 3])
    def test_switch_at_level_k(self, switch_level):
        schedule = (TOP_DOWN,) * (switch_level - 1) + (BOTTOM_UP,)
        with make_mssg(backend="StreamDB") as mssg:
            for s, d, expect in QUERIES:
                report = mssg.query_bfs(s, d, direction_schedule=schedule)
                assert report.result == expect
                got = report.directions
                assert got[: switch_level - 1] == (TOP_DOWN,) * (switch_level - 1)
                assert all(x == BOTTOM_UP for x in got[switch_level - 1 :])

    def test_forced_bottom_up_pipelined(self):
        with make_mssg(backend="grDB") as mssg:
            s, d, expect = QUERIES[0]
            report = mssg.query_bfs(
                s, d, pipelined=True, direction_schedule=(BOTTOM_UP,)
            )
            assert report.result == expect
            assert set(report.directions) == {BOTTOM_UP}


class TestFailoverComposition:
    KILL = FaultPlan.kill_node(1 + 2, at_time=0.0005)  # back-end 2 of 4

    @pytest.mark.parametrize("backend", ["grDB", "StreamDB", "MySQL"])
    def test_mid_query_death_converges(self, backend):
        with make_mssg(backend=backend, replication=2) as mssg:
            mssg.set_fault_plan(self.KILL)
            for s, d, expect in QUERIES:
                report = mssg.query_bfs(s, d)
                assert report.result == expect, f"{backend} {s}->{d}"
                assert not report.partial

    def test_mid_query_death_forced_bottom_up(self):
        """Claim-exchange rounds re-assign a dead rank's scan shard."""
        with make_mssg(backend="StreamDB", replication=2) as mssg:
            mssg.set_fault_plan(self.KILL)
            s, d, expect = QUERIES[0]
            report = mssg.query_bfs(s, d, direction_schedule=(BOTTOM_UP,))
            assert report.result == expect
            assert not report.partial
            assert report.device_failures >= 1

    def test_unreplicated_death_reports_partial_not_wrong(self):
        with make_mssg(backend="StreamDB", replication=1) as mssg:
            mssg.set_fault_plan(self.KILL)  # installing a plan arms failover
            s, d, expect = QUERIES[0]
            report = mssg.query_bfs(s, d)
            # With the only copy gone the search may fail to find the
            # destination, but it must say so rather than answer wrong.
            if report.result is not None and not report.partial:
                assert report.result == expect


class TestPaperModeUnchanged:
    def test_deployment_defaults_off(self):
        assert Deployment(backend="grDB", num_backends=4).features.direction_opt is False

    def test_library_default_on(self):
        assert MSSGConfig().features.direction_opt is True

    def test_off_timing_independent_of_library_default(self):
        """direction_opt=False must be byte-identical to a deployment that
        never heard of the hybrid (paper figures stay reproducible)."""
        s, d, expect = QUERIES[0]
        with make_mssg(backend="grDB", direction_opt=True) as mssg:
            a = mssg.query_bfs(s, d, direction_opt=False)
        with make_mssg(backend="grDB", direction_opt=False) as mssg:
            b = mssg.query_bfs(s, d)
        assert a.result == b.result == expect
        assert a.seconds == b.seconds
        assert a.edges_scanned == b.edges_scanned

    def test_path_query_unaffected(self):
        s, d, expect = QUERIES[0]
        with make_mssg(backend="HashMap") as mssg:
            path = mssg.query("path", source=s, dest=d).result
            assert path is not None
            assert len(path) == expect + 1
            assert path[0] == s and path[-1] == d
            pairs = {tuple(e) for e in np.vstack([EDGES, EDGES[:, ::-1]]).tolist()}
            for u, v in zip(path, path[1:]):
                assert (u, v) in pairs


class TestSequentialReference:
    def test_queries_match_reference(self):
        for s, d, expect in QUERIES:
            assert bfs_distance(GRAPH, s, d) == expect
