"""Tests for sequential BFS and both parallel out-of-core BFS algorithms."""

import numpy as np
import pytest

from repro.bfs import (
    BFSConfig,
    NOT_FOUND,
    bfs_distance,
    bfs_levels,
    oocbfs_program,
    pipelined_bfs_program,
    sample_queries_by_distance,
)
from repro.graphdb.metadata import ExternalMetadata, InMemoryMetadata
from repro.graphgen import CSRGraph, dedupe_edges, preferential_attachment
from repro.simcluster import SimCluster

from .helpers import make_store


def partition_edges(edges: np.ndarray, nparts: int) -> list[np.ndarray]:
    """Vertex-granularity declustering: both directions, to the src owner."""
    both = np.vstack([edges, edges[:, ::-1]])
    return [both[both[:, 0] % nparts == q] for q in range(nparts)]


def run_parallel_bfs(
    edges,
    source,
    dest,
    nranks=3,
    backend="HashMap",
    algorithm=oocbfs_program,
    owner_known=True,
    visited_factory=None,
    **alg_kw,
):
    cluster = SimCluster(nranks=nranks)
    parts = partition_edges(np.asarray(edges, dtype=np.int64), nranks)
    dbs = []
    for q, node in enumerate(cluster.nodes):
        db = make_store(backend, node)
        db.store_edges(parts[q])
        db.finalize_ingest()
        dbs.append(db)
    cfg = BFSConfig(source=source, dest=dest, owner_known=owner_known)

    def make_program(q):
        def program(ctx):
            visited = (
                visited_factory(ctx) if visited_factory else InMemoryMetadata()
            )
            result = yield from algorithm(ctx, dbs[q], cfg, visited, **alg_kw)
            return result

        return program

    results = cluster.run([make_program(q) for q in range(nranks)])
    levels = {r.found_level for r in results}
    assert len(levels) == 1, f"ranks disagree on found level: {levels}"
    return results[0].found_level, results, cluster


class TestSequentialBFS:
    def test_path_graph(self):
        g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 3]]))
        assert bfs_levels(g, 0).tolist() == [0, 1, 2, 3]
        assert bfs_distance(g, 0, 3) == 3
        assert bfs_distance(g, 3, 0) == 3

    def test_disconnected(self):
        g = CSRGraph.from_edges(np.array([[0, 1], [2, 3]]))
        assert bfs_distance(g, 0, 3) == -1

    def test_source_out_of_range(self):
        g = CSRGraph.from_edges(np.array([[0, 1]]))
        with pytest.raises(ValueError):
            bfs_levels(g, 5)

    def test_star(self):
        g = CSRGraph.from_edges(np.array([[0, i] for i in range(1, 6)]))
        levels = bfs_levels(g, 1)
        assert levels[0] == 1
        assert all(levels[i] == 2 for i in range(2, 6))

    def test_sample_queries_distances_correct(self):
        edges = preferential_attachment(300, 3, seed=2)
        g = CSRGraph.from_edges(edges)
        queries = sample_queries_by_distance(g, 12, seed=3)
        assert len(queries) == 12
        for s, d, dist in queries:
            assert bfs_distance(g, s, d) == dist
            assert dist >= 1


class TestParallelBFSCorrectness:
    GRAPH = dedupe_edges(preferential_attachment(120, 2, seed=5))

    def reference(self):
        return CSRGraph.from_edges(self.GRAPH, num_vertices=120)

    @pytest.mark.parametrize("owner_known", [True, False])
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_alg1_matches_sequential(self, nranks, owner_known):
        g = self.reference()
        rng = np.random.default_rng(9)
        for _ in range(6):
            s, d = int(rng.integers(0, 120)), int(rng.integers(0, 120))
            expected = bfs_distance(g, s, d)
            found, _, _ = run_parallel_bfs(
                self.GRAPH, s, d, nranks=nranks, owner_known=owner_known
            )
            if expected == -1:
                assert found == NOT_FOUND
            else:
                assert found == expected, f"query {s}->{d}"

    @pytest.mark.parametrize("owner_known", [True, False])
    @pytest.mark.parametrize("nranks", [1, 3])
    def test_alg2_matches_sequential(self, nranks, owner_known):
        g = self.reference()
        rng = np.random.default_rng(11)
        for _ in range(5):
            s, d = int(rng.integers(0, 120)), int(rng.integers(0, 120))
            expected = bfs_distance(g, s, d)
            found, _, _ = run_parallel_bfs(
                self.GRAPH,
                s,
                d,
                nranks=nranks,
                algorithm=pipelined_bfs_program,
                owner_known=owner_known,
                threshold=8,
                poll_batch=4,
            )
            assert found == (expected if expected != -1 else NOT_FOUND)

    def test_source_equals_dest(self):
        found, _, _ = run_parallel_bfs(self.GRAPH, 7, 7)
        assert found == 0

    def test_adjacent_pair_is_level_1(self):
        u, v = map(int, self.GRAPH[0])
        found, _, _ = run_parallel_bfs(self.GRAPH, u, v)
        assert found == 1

    def test_unreachable_returns_not_found(self):
        edges = np.array([[0, 1], [2, 3]])
        found, results, _ = run_parallel_bfs(edges, 0, 3, nranks=2)
        assert found == NOT_FOUND
        assert all(r.levels_expanded <= 3 for r in results)

    @pytest.mark.parametrize("backend", ["Array", "MySQL", "BerkeleyDB", "StreamDB", "grDB"])
    def test_all_backends_same_answer(self, backend):
        g = self.reference()
        s, d = 3, 77
        expected = bfs_distance(g, s, d)
        found, _, _ = run_parallel_bfs(self.GRAPH, s, d, nranks=2, backend=backend)
        assert found == (expected if expected != -1 else NOT_FOUND)

    def test_external_visited_same_answer(self):
        g = self.reference()
        s, d = 3, 77
        expected = bfs_distance(g, s, d)
        found, _, _ = run_parallel_bfs(
            self.GRAPH,
            s,
            d,
            nranks=2,
            visited_factory=lambda ctx: ExternalMetadata(ctx.node.disk("visited")),
        )
        assert found == expected

    def test_edges_scanned_reported(self):
        _, results, _ = run_parallel_bfs(self.GRAPH, 0, 119)
        assert sum(r.edges_scanned for r in results) > 0
        assert all(r.seconds >= 0 for r in results)

    def test_deterministic_timing(self):
        _, r1, c1 = run_parallel_bfs(self.GRAPH, 2, 90)
        _, r2, c2 = run_parallel_bfs(self.GRAPH, 2, 90)
        assert [r.seconds for r in r1] == [r.seconds for r in r2]
        assert c1.makespan == c2.makespan


class TestPipelineBehavior:
    def test_pipelined_overlap_reduces_time_on_slow_network(self):
        """With expensive messages, Alg2's eager chunks should not be slower
        than Alg1's end-of-level exchange for fringe-heavy searches."""
        from repro.simcluster import NetworkProfile, NodeSpec

        edges = dedupe_edges(preferential_attachment(400, 4, seed=1))
        slow_net = NodeSpec(network=NetworkProfile(latency=5e-3, bandwidth=2e6))

        def run(algorithm, **kw):
            cluster = SimCluster(nranks=4, spec=slow_net)
            parts = partition_edges(edges, 4)
            dbs = []
            for q, node in enumerate(cluster.nodes):
                db = make_store("HashMap", node)
                db.store_edges(parts[q])
                db.finalize_ingest()
                dbs.append(db)
            cfg = BFSConfig(source=0, dest=399, max_levels=8)

            def mk(q):
                def program(ctx):
                    res = yield from algorithm(ctx, dbs[q], cfg, InMemoryMetadata(), **kw)
                    return res

                return program

            cluster.run([mk(q) for q in range(4)])
            return cluster.makespan

        t1 = run(oocbfs_program)
        t2 = run(pipelined_bfs_program, threshold=16, poll_batch=8)
        assert t2 <= t1 * 1.15  # overlap should roughly pay for itself
