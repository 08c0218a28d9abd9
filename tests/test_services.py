"""Tests for declustering, the ingestion service, and the query service."""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.graphgen import dedupe_edges, preferential_attachment
from repro.services import (
    EdgeRoundRobin,
    IngestionService,
    QueryService,
    VertexHash,
    VertexRoundRobin,
)
from repro.simcluster import CpuProfile, NodeSpec, SimCluster
from repro.util import ConfigError

from .helpers import STORE_FEATURES, make_store

EDGES = dedupe_edges(preferential_attachment(200, 3, seed=4))


class TestDeclusterers:
    @pytest.mark.parametrize("cls", [VertexRoundRobin, VertexHash])
    def test_vertex_granularity_invariant(self, cls):
        """All of a vertex's adjacency entries land on one node."""
        d = cls(4)
        parts = d.assign(EDGES, 0)
        assert sum(len(p) for p in parts) == 2 * len(EDGES)
        seen_owner = {}
        for q, part in enumerate(parts):
            for src in np.unique(part[:, 0]):
                assert seen_owner.setdefault(int(src), q) == q

    @pytest.mark.parametrize("cls", [VertexRoundRobin, VertexHash])
    def test_owner_map_matches_assignment(self, cls):
        d = cls(4)
        parts = d.assign(EDGES, 0)
        for q, part in enumerate(parts):
            if len(part):
                assert (d.owner_of(part[:, 0]) == q).all()

    def test_edge_rr_scatters_and_balances(self):
        d = EdgeRoundRobin(4)
        parts = d.assign(EDGES, 0)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 2 * len(EDGES)
        assert max(sizes) - min(sizes) <= 2
        assert not d.owner_known
        with pytest.raises(NotImplementedError):
            d.owner_of(np.array([1]))

    def test_edge_rr_counter_spans_windows(self):
        d = EdgeRoundRobin(3)
        first = d.assign(EDGES[:4], 0)
        second = d.assign(EDGES[4:8], 4)
        # Round robin continues where the previous window stopped.
        sizes = [len(f) + len(s) for f, s in zip(first, second)]
        assert max(sizes) - min(sizes) <= 2

    def test_bad_backend_count(self):
        with pytest.raises(ConfigError):
            VertexRoundRobin(0)


def make_service(
    nfront=1, nback=3, backend="HashMap", decluster=VertexRoundRobin, spec=None, **kw
):
    cluster = SimCluster(nranks=nfront + nback, spec=spec)
    dbs = [
        make_store(backend, cluster.nodes[nfront + q]) for q in range(nback)
    ]
    declusterer = decluster(nback)
    svc = IngestionService(
        cluster, dbs, declusterer, num_frontends=nfront, window_size=32, **kw
    )
    return svc, cluster, dbs, declusterer


class TestIngestionService:
    def test_ingest_stores_everything(self):
        svc, _, dbs, _ = make_service()
        report = svc.ingest(EDGES)
        assert report.edges_ingested == len(EDGES)
        assert report.entries_stored == 2 * len(EDGES)
        assert sum(report.per_backend_entries) == 2 * len(EDGES)
        assert report.windows == (len(EDGES) + 31) // 32
        assert report.seconds > 0
        assert report.edges_per_second > 0
        # Adjacency must be reconstructable from the union of back-ends.
        u, v = map(int, EDGES[0])
        assert any(v in db.get_adjacency(u).tolist() for db in dbs)

    def test_multiple_frontends_ingest_same_data(self):
        svc1, _, dbs1, _ = make_service(nfront=1)
        svc4, _, dbs4, _ = make_service(nfront=4)
        svc1.ingest(EDGES)
        svc4.ingest(EDGES)
        for q in range(3):
            for vertex in range(0, 200, 17):
                assert sorted(dbs1[q].get_adjacency(vertex).tolist()) == sorted(
                    dbs4[q].get_adjacency(vertex).tolist()
                )

    def test_more_frontends_not_slower(self):
        svc1, c1, _, _ = make_service(nfront=1)
        svc4, c4, _, _ = make_service(nfront=4)
        t1 = svc1.ingest(EDGES).seconds
        t4 = svc4.ingest(EDGES).seconds
        assert t4 <= t1 * 1.05

    def test_config_validation(self):
        cluster = SimCluster(nranks=2)
        dbs = [make_store("HashMap", cluster.nodes[1])]
        with pytest.raises(ConfigError):
            IngestionService(cluster, dbs, VertexRoundRobin(2), num_frontends=1)
        with pytest.raises(ConfigError):
            IngestionService(cluster, dbs, VertexRoundRobin(1), num_frontends=0)
        with pytest.raises(ConfigError):
            IngestionService(
                SimCluster(nranks=1), dbs, VertexRoundRobin(1), num_frontends=1
            )

    def test_binary_input_cheaper_than_ascii(self):
        # Input parsing is priced by the front-end's CpuProfile alone; binary
        # input is a profile that charges nothing to parse an edge.
        binary = NodeSpec(cpu=CpuProfile(ascii_parse_seconds=0.0))
        svc_a, _, _, _ = make_service()
        svc_b, _, _, _ = make_service(spec=binary)
        ta = svc_a.ingest(EDGES).seconds
        tb = svc_b.ingest(EDGES).seconds
        assert tb <= ta


class TestQueryService:
    def build(self, decluster=VertexRoundRobin, backend="HashMap", nfront=1, nback=3):
        svc, cluster, dbs, declusterer = make_service(
            nfront=nfront, nback=nback, backend=backend, decluster=decluster
        )
        svc.ingest(EDGES)
        return QueryService(cluster, dbs, declusterer, STORE_FEATURES, num_frontends=nfront)

    def test_bfs_query_correct(self):
        from repro.bfs import bfs_distance
        from repro.graphgen import CSRGraph

        qs = self.build()
        g = CSRGraph.from_edges(EDGES, num_vertices=200)
        for s, d in [(0, 150), (3, 77), (10, 11)]:
            expected = bfs_distance(g, s, d)
            report = qs.query("bfs", source=s, dest=d)
            assert report.result == (expected if expected != -1 else None)
            assert report.seconds > 0

    def test_pipelined_bfs_matches(self):
        qs = self.build()
        a = qs.query("bfs", source=0, dest=150)
        b = qs.query("pipelined-bfs", source=0, dest=150, threshold=16)
        assert a.result == b.result

    @pytest.mark.parametrize("decluster", [EdgeRoundRobin, VertexHash])
    def test_bfs_under_other_declusterings(self, decluster):
        from repro.bfs import bfs_distance
        from repro.graphgen import CSRGraph

        qs = self.build(decluster=decluster)
        g = CSRGraph.from_edges(EDGES, num_vertices=200)
        expected = bfs_distance(g, 0, 150)
        report = qs.query("bfs", source=0, dest=150)
        assert report.result == (expected if expected != -1 else None)

    def test_degree_analysis(self):
        from repro.graphgen import CSRGraph

        qs = self.build()
        g = CSRGraph.from_edges(EDGES, num_vertices=200)
        report = qs.query("degree", vertices=[0, 5, 199])
        for v in [0, 5, 199]:
            assert report.result[v] == g.degree(v)

    def test_neighborhood_analysis(self):
        from repro.bfs import bfs_levels
        from repro.graphgen import CSRGraph

        qs = self.build()
        g = CSRGraph.from_edges(EDGES, num_vertices=200)
        levels = bfs_levels(g, 0)
        expected = int(((levels >= 0) & (levels <= 2)).sum())
        report = qs.query("neighborhood", source=0, hops=2)
        assert report.result == expected

    def test_neighborhood_broadcast_mode(self):
        from repro.bfs import bfs_levels
        from repro.graphgen import CSRGraph

        qs = self.build(decluster=EdgeRoundRobin)
        g = CSRGraph.from_edges(EDGES, num_vertices=200)
        levels = bfs_levels(g, 0)
        expected = int(((levels >= 0) & (levels <= 2)).sum())
        assert qs.query("neighborhood", source=0, hops=2).result == expected

    def test_zero_levels_search_nothing(self):
        # A path 0-1-2-3-4 plus the edge 0-5: one hop to 1, but zero levels
        # may only find the source itself.
        chain = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 5]])
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(chain)
            for pipelined in (False, True):
                assert mssg.query_bfs(0, 1, max_levels=0, pipelined=pipelined).result is None
            assert mssg.query_many([(0, 1)], max_levels=0).queries[0].result is None
            assert mssg.query("path", source=0, dest=1, max_levels=0).result is None
            assert mssg.query_bfs(0, 0, max_levels=0).result == 0
            assert mssg.query_bfs(0, 1, max_levels=1).result == 1
            assert mssg.query("neighborhood", source=0, hops=0).result == 1
            assert mssg.query("neighborhood", source=0, hops=1).result == 3

    def test_negative_levels_are_refused(self):
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(EDGES)
            with pytest.raises(ConfigError, match="max_levels"):
                mssg.query_bfs(0, 1, max_levels=-1)
            with pytest.raises(ConfigError, match="max_levels"):
                mssg.query_many([(0, 1)], max_levels=-1)
            # A bad submit is refused at the queue, so the good query
            # queued before it still runs at the next drain.
            qs = mssg.queries
            good = qs.submit(0, 1)
            with pytest.raises(ConfigError, match="max_levels"):
                qs.submit(2, 3, max_levels=-1)
            assert [r.result for r in qs.drain().queries] == [
                mssg.query_bfs(0, 1).result
            ]
            assert good == 0
            with pytest.raises(ConfigError, match="max_levels"):
                mssg.query("neighborhood", source=0, hops=-1)

    def test_unknown_analysis(self):
        qs = self.build()
        with pytest.raises(ConfigError):
            qs.query("page-rank")

    def test_custom_analysis_registration(self):
        qs = self.build()

        def tiny(**params):
            from repro.services.query import QueryReport

            return QueryReport(analysis="tiny", seconds=0.0, result=params["x"] * 2)

        qs.register("tiny", tiny)
        assert "tiny" in qs.analyses()
        assert qs.query("tiny", x=21).result == 42

    def test_external_visited_query(self):
        qs = self.build()
        a = qs.query("bfs", source=0, dest=150, visited="memory")
        b = qs.query("bfs", source=0, dest=150, visited="external")
        assert a.result == b.result
        assert b.seconds >= a.seconds  # paying disk I/O for visited state
