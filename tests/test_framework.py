"""End-to-end tests of the MSSG façade across backends and declusterings."""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import bfs_distance, bfs_levels, sample_queries_by_distance
from repro.graphdb import GrDBFormat
from repro.graphgen import CSRGraph, dedupe_edges, preferential_attachment, pubmed_like
from repro.util import ConfigError

EDGES = dedupe_edges(preferential_attachment(150, 3, seed=8))
GRAPH = CSRGraph.from_edges(EDGES, num_vertices=150)

SMALL_GRDB = GrDBFormat(
    capacities=(2, 4, 16, 256),
    block_sizes=(1024, 1024, 1024, 4096),
    max_file_bytes=1 << 20,
)


class TestConfig:
    def test_defaults(self):
        cfg = MSSGConfig()
        assert cfg.backend == "grDB"
        assert cfg.declustering == "vertex-rr"

    def test_invalid(self):
        with pytest.raises(ConfigError):
            MSSGConfig(backend="Oracle")
        with pytest.raises(ConfigError):
            MSSGConfig(declustering="magic")
        with pytest.raises(ConfigError):
            MSSGConfig(num_backends=0)
        with pytest.raises(ConfigError):
            MSSGConfig(num_frontends=0)


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ["Array", "HashMap", "grDB", "BerkeleyDB", "StreamDB", "MySQL"])
    def test_ingest_then_query(self, backend):
        with MSSG(
            MSSGConfig(
                num_backends=3,
                num_frontends=2,
                backend=backend,
                grdb_format=SMALL_GRDB,
                window_size=64,
            )
        ) as mssg:
            report = mssg.ingest(EDGES)
            assert report.entries_stored == 2 * len(EDGES)
            for s, d in [(0, 140), (2, 3)]:
                expected = bfs_distance(GRAPH, s, d)
                answer = mssg.query_bfs(s, d)
                assert answer.result == (expected if expected != -1 else None)

    def test_sixty_four_backends(self):
        """The paper's node count.  No timing assertion: it is here because
        one 64-rank query cost seconds until the simulator's event loop
        became a priority queue, and nothing else in tier-1 runs above 16."""
        edges = pubmed_like(1200, seed=3)
        graph = CSRGraph.from_edges(edges, num_vertices=1200)
        unlabelled, sizes = graph.degrees() > 0, []
        while unlabelled.any():
            reached = bfs_levels(graph, int(np.argmax(unlabelled))) >= 0
            sizes.append(int(reached.sum()))
            unlabelled &= ~reached
        with MSSG(MSSGConfig(num_backends=64, backend="Array")) as mssg:
            mssg.ingest(edges)
            for s, d, distance in sample_queries_by_distance(graph, 4, seed=2):
                assert mssg.query_bfs(s, d).result == distance == bfs_distance(graph, s, d)
            assert mssg.query("components").result["sizes"] == sorted(sizes, reverse=True)

    def test_pipelined_query(self):
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(EDGES)
            expected = bfs_distance(GRAPH, 1, 120)
            answer = mssg.query_bfs(1, 120, pipelined=True, threshold=16)
            assert answer.result == (expected if expected != -1 else None)

    def test_edge_declustering_end_to_end(self):
        with MSSG(
            MSSGConfig(
                num_backends=3, backend="grDB", declustering="edge-rr",
                grdb_format=SMALL_GRDB,
            )
        ) as mssg:
            mssg.ingest(EDGES)
            expected = bfs_distance(GRAPH, 0, 100)
            assert mssg.query_bfs(0, 100).result == (
                expected if expected != -1 else None
            )

    def test_query_timing_and_stats(self):
        with MSSG(MSSGConfig(num_backends=2, backend="grDB", grdb_format=SMALL_GRDB)) as mssg:
            mssg.ingest(EDGES)
            answer = mssg.query_bfs(0, 149)
            assert answer.seconds > 0
            assert answer.edges_scanned > 0
            stats = mssg.backend_stats()
            assert len(stats) == 2
            assert sum(s["edges_stored"] for s in stats) == 2 * len(EDGES)

    def test_grdb_beats_mysql_on_search_time(self):
        """The headline comparison, end-to-end at miniature scale."""

        def search_time(backend):
            with MSSG(
                MSSGConfig(
                    num_backends=2, backend=backend, grdb_format=SMALL_GRDB,
                    cache_blocks=64,
                )
            ) as mssg:
                mssg.ingest(EDGES)
                total = 0.0
                for s, d in [(0, 140), (1, 77), (5, 60)]:
                    total += mssg.query_bfs(s, d).seconds
                return total

        assert search_time("grDB") < search_time("MySQL")

    def test_external_visited_option(self):
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(EDGES)
            a = mssg.query_bfs(0, 100, visited="memory")
            b = mssg.query_bfs(0, 100, visited="external")
            assert a.result == b.result

    def test_repeated_queries_reuse_storage(self):
        with MSSG(MSSGConfig(num_backends=2, backend="grDB", grdb_format=SMALL_GRDB)) as mssg:
            mssg.ingest(EDGES)
            r1 = mssg.query_bfs(0, 100)
            r2 = mssg.query_bfs(0, 100)
            assert r1.result == r2.result
            # Second run benefits from a warm block cache.
            assert r2.seconds <= r1.seconds
