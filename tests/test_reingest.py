"""Every declustering strategy answers over edges ingested in several passes,
and a deployment reopened over its own storage answers as before the close.

Each ``ingest`` / ``ingest_stream`` call declusters its batch from stream
offset 0, so placement must not depend on what an earlier call saw: a
strategy that kept a per-run owner table would forget the first batch's
vertices at the second and route their fringes nowhere.

A reopened store rebuilds its out-degree census at open, and the façade
sizes the id space from it: the direction-optimizing hybrid then prices and
takes the same levels as before the close.
"""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import sample_queries_by_distance
from repro.features import Features
from repro.framework import _DECLUSTERERS
from repro.graphgen import CSRGraph, pubmed_like

EDGES = pubmed_like(300, seed=3)


@pytest.mark.parametrize("declustering", sorted(_DECLUSTERERS))
def test_two_ingests_and_a_stream_answer_like_the_union(declustering):
    half, three_quarters = len(EDGES) // 2, 3 * len(EDGES) // 4
    a, b, c = EDGES[:half], EDGES[half:three_quarters], EDGES[three_quarters:]
    union = CSRGraph.from_edges(EDGES, num_vertices=int(np.max(EDGES)) + 1)
    queries = sample_queries_by_distance(union, 12, seed=2)
    mssg = MSSG(
        MSSGConfig(
            num_backends=3,
            backend="grDB",
            declustering=declustering,
            features=Features(streaming=True),
        )
    )
    try:
        mssg.ingest(a)
        mssg.ingest(b)
        mssg.ingest_stream(c)
        for s, d, dist in queries:
            assert mssg.query_bfs(s, d).result == dist, (s, d)
        drained = mssg.query_many([(s, d) for s, d, _ in queries])
        assert [r.result for r in drained.queries] == [dist for _, _, dist in queries]
    finally:
        mssg.close()


@pytest.mark.parametrize("backend", ["grDB", "StreamDB", "BerkeleyDB", "MySQL"])
def test_a_reopened_deployment_searches_as_before_the_close(tmp_path, backend):
    edges = pubmed_like(2000, seed=5)
    graph = CSRGraph.from_edges(edges, num_vertices=int(np.max(edges)) + 1)
    queries = sample_queries_by_distance(graph, 6, seed=4)
    ids = np.arange(graph.num_vertices + 2)

    def observe(mssg):
        searches = [mssg.query_bfs(s, d) for s, d, _ in queries]
        return (
            [(r.result, r.levels, r.directions) for r in searches],
            [db.degree_many(ids).tolist() for db in mssg.dbs],
            mssg.queries.num_vertices,
        )

    config = MSSGConfig(num_backends=4, backend=backend, storage_dir=str(tmp_path))
    with MSSG(config) as mssg:
        mssg.ingest(edges)
        before = observe(mssg)
    assert [result for result, _, _ in before[0]] == [dist for _, _, dist in queries]
    assert any("bottom-up" in directions for _, _, directions in before[0])
    with MSSG(config) as mssg:
        assert observe(mssg) == before
