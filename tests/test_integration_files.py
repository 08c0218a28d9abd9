"""Integration tests with real file-backed storage and misc edge cases."""

import os

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import bfs_distance
from repro.graphgen import CSRGraph, dedupe_edges, preferential_attachment
from repro.simcluster import SimCluster

EDGES = dedupe_edges(preferential_attachment(120, 3, seed=12))
GRAPH = CSRGraph.from_edges(EDGES, num_vertices=120)


class TestFileBackedDeployment:
    def test_grdb_on_real_files(self, tmp_path):
        """End-to-end with FileBacking: grDB writes genuine level files."""
        with MSSG(
            MSSGConfig(
                num_backends=2, backend="grDB", storage_dir=str(tmp_path)
            )
        ) as mssg:
            mssg.ingest(EDGES)
            expected = bfs_distance(GRAPH, 0, 110)
            assert mssg.query_bfs(0, 110).result == (
                expected if expected != -1 else None
            )
        # Real files exist per node, per level.
        files = []
        for root, _, names in os.walk(tmp_path):
            files.extend(os.path.join(root, n) for n in names)
        level_files = [f for f in files if "grdb_L" in f]
        assert level_files, f"no grDB level files under {tmp_path}"
        assert any(os.path.getsize(f) > 0 for f in level_files)
        assert any(f.endswith("grdb_super") for f in files)

    def test_bdb_on_real_files(self, tmp_path):
        with MSSG(
            MSSGConfig(num_backends=2, backend="BerkeleyDB", storage_dir=str(tmp_path))
        ) as mssg:
            mssg.ingest(EDGES)
            expected = bfs_distance(GRAPH, 1, 100)
            assert mssg.query_bfs(1, 100).result == (
                expected if expected != -1 else None
            )
        found = any(
            "bdb" in name
            for _, _, names in os.walk(tmp_path)
            for name in names
        )
        assert found


class TestCommEdgeCases:
    def test_gather_nonzero_root(self):
        cluster = SimCluster(nranks=4)

        def program(ctx):
            out = yield from ctx.comm.gather(ctx.rank + 100, root=2)
            return out

        results = cluster.run(program)
        assert results[2] == [100, 101, 102, 103]
        assert results[0] is None

    def test_reduce_is_rank_ordered(self):
        cluster = SimCluster(nranks=3)

        def program(ctx):
            # Non-commutative op: string concatenation.
            out = yield from ctx.comm.reduce(str(ctx.rank), lambda a, b: a + b, root=0)
            return out

        assert cluster.run(program)[0] == "012"

    def test_explicit_size_overrides_estimate(self):
        from repro.simcluster import NetworkProfile, NodeSpec

        spec = NodeSpec(network=NetworkProfile(bandwidth=1e3, latency=1e-6))
        cluster = SimCluster(nranks=2, spec=spec)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, "tiny", size=10_000)  # claim 10 KB on the wire
                return None
            msg = yield from ctx.comm.recv()
            return ctx.clock.now

        t = cluster.run(program)[1]
        assert t > 10_000 / 1e3 * 0.9  # transfer time dominated by the claim

    def test_probe_does_not_consume(self):
        cluster = SimCluster(nranks=2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, "keep", tag=3)
                return None
            ctx.compute(1.0)
            peek1 = yield from ctx.comm.probe(tag=3)
            peek2 = yield from ctx.comm.probe(tag=3)
            msg = yield from ctx.comm.recv(tag=3)
            return (peek1.payload, peek2.payload, msg.payload)

        assert cluster.run(program)[1] == ("keep", "keep", "keep")


class TestBFSEdgeCases:
    def test_max_levels_caps_search(self):
        # A long path graph; cap the levels below the true distance.
        edges = np.array([[i, i + 1] for i in range(30)])
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            assert mssg.query_bfs(0, 30, max_levels=5).result is None
            assert mssg.query_bfs(0, 30).result == 30

    def test_query_nonexistent_vertices(self):
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(EDGES)
            assert mssg.query_bfs(5000, 6000).result is None

