"""Tests for typed ingestion and the ER generator."""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.graphgen import erdos_renyi_edges, graph_stats, pubmed_semantic_graph
from repro.ontology import SemanticGraph
from repro.util import ConfigError


class TestSemanticIngest:
    def test_ingest_typed_graph(self):
        g = pubmed_semantic_graph(num_articles=60, num_authors=20, seed=9)
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            report, codes = mssg.ingest_semantic(g)
            assert report.edges_ingested == g.num_edges
            assert set(codes) == {"Article", "Author", "Journal", "MeSHTerm"}
            # Typed BFS is immediately usable.
            answer = mssg.query(
                "typed-bfs", source=0, dest=30, allowed_codes=list(codes.values())
            )
            assert answer.result == mssg.query_bfs(0, 30).result

    def test_invalid_graph_rejected(self):
        from repro.graphgen import pubmed_ontology

        bad = SemanticGraph()  # untyped container, validated at ingest
        bad.add_vertex(0, "Article")
        bad.add_vertex(1, "Klingon")
        bad.add_edge(0, 1, "cites")
        bad.ontology = pubmed_ontology()
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            with pytest.raises(ConfigError):
                mssg.ingest_semantic(bad)

    def test_untyped_ontology_free_graph(self):
        g = SemanticGraph(name="plain")
        g.add_vertex(0, "X")
        g.add_vertex(1, "X")
        g.add_edge(0, 1)
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            report, codes = mssg.ingest_semantic(g)
            assert report.edges_ingested == 1
            assert codes == {"X": 0}


class TestErdosRenyi:
    def test_exact_edge_count(self):
        edges = erdos_renyi_edges(500, 2000, seed=1)
        assert len(edges) == 2000
        stats = graph_stats(edges)
        assert stats.undirected_edges == 2000

    def test_no_hubs(self):
        """The ch. 2 contrast: ER degree distribution has no heavy tail."""
        n = 2000
        er = erdos_renyi_edges(n, 8 * n, seed=2)
        stats = graph_stats(er)
        # Max degree stays within a few multiples of the mean.
        assert stats.max_degree < 4 * stats.avg_degree

    def test_deterministic(self):
        assert np.array_equal(
            erdos_renyi_edges(100, 300, seed=5), erdos_renyi_edges(100, 300, seed=5)
        )

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            erdos_renyi_edges(1, 1)
        with pytest.raises(ConfigError):
            erdos_renyi_edges(10, 0)
        with pytest.raises(ConfigError):
            erdos_renyi_edges(10, 44)  # denser than rejection sampling allows

