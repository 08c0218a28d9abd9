"""Cross-cutting property-based tests (hypothesis).

These target whole-subsystem invariants rather than single functions:
grDB's on-disk chains against a dict model under arbitrary batch patterns
and growth policies, the end-to-end framework against reference BFS, and
the discrete-event scheduler's determinism/causality under random
communication patterns.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfs import NOT_FOUND, bfs_distance
from repro.graphdb import GrDB, GrDBFormat
from repro.graphdb.grdb import defragment
from repro.graphgen import CSRGraph, dedupe_edges
from repro.simcluster import NodeSpec, SimCluster, SimNode

TINY_FMT = GrDBFormat(
    capacities=(2, 4, 8, 16),
    block_sizes=(128, 256, 256, 512),
    max_file_bytes=2048,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 400)),
            min_size=1,
            max_size=40,
        ),
        min_size=1,
        max_size=6,
    ),
    policy=st.sampled_from(["link", "move"]),
    cache_blocks=st.sampled_from([0, 4, 64]),
    defrag=st.booleans(),
)
def test_grdb_matches_dict_model(batches, policy, cache_blocks, defrag):
    """grDB under arbitrary batch arrival orders == a dict of lists."""
    node = SimNode(0, NodeSpec())
    db = GrDB(
        node.disk,
        fmt=TINY_FMT,
        clock=node.clock,
        growth_policy=policy,
        cache_blocks=cache_blocks,
    )
    model: dict[int, list[int]] = {}
    for batch in batches:
        db.store_edges(np.array(batch, dtype=np.int64))
        for u, v in batch:
            model.setdefault(u, []).append(v)
    if defrag:
        defragment(db)
    for u in range(13):
        assert sorted(db.get_adjacency(u).tolist()) == sorted(model.get(u, []))
    assert db.local_vertices().tolist() == sorted(model)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=3, max_size=80
    ),
    backend=st.sampled_from(["HashMap", "grDB", "StreamDB"]),
    nbackends=st.integers(1, 4),
    declustering=st.sampled_from(["vertex-rr", "edge-rr", "vertex-hash"]),
    query_seed=st.integers(0, 1000),
)
def test_framework_bfs_matches_reference(edges, backend, nbackends, declustering, query_seed):
    """End-to-end: any deployment answers BFS like the reference CSR BFS."""
    from repro import MSSG, MSSGConfig

    clean = dedupe_edges(np.array(edges, dtype=np.int64))
    if len(clean) == 0:
        return
    graph = CSRGraph.from_edges(clean, num_vertices=41)
    rng = np.random.default_rng(query_seed)
    s, d = int(rng.integers(0, 41)), int(rng.integers(0, 41))
    expected = bfs_distance(graph, s, d)
    with MSSG(
        MSSGConfig(
            num_backends=nbackends,
            backend=backend,
            declustering=declustering,
            grdb_format=TINY_FMT,
        )
    ) as mssg:
        mssg.ingest(clean)
        answer = mssg.query_bfs(s, d)
        assert answer.result == (expected if expected != -1 else None)


@settings(max_examples=20, deadline=None)
@given(
    nranks=st.integers(2, 5),
    plan=st.lists(
        st.tuples(
            st.integers(0, 4),  # sender
            st.integers(0, 4),  # receiver
            st.floats(0, 0.01),  # compute before send
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_scheduler_delivers_everything_deterministically(nranks, plan):
    """Random send plans: all messages arrive, in causal order, twice alike."""
    plan = [(s % nranks, r % nranks, c) for s, r, c in plan]

    def run():
        cluster = SimCluster(nranks=nranks)
        sends = {}
        recvs = {}
        for s, r, _ in plan:
            sends.setdefault(s, []).append(r)
            recvs[r] = recvs.get(r, 0) + 1

        def program(ctx):
            for s, r, c in plan:
                if s == ctx.rank:
                    ctx.compute(c)
                    ctx.comm.send(r, (s, ctx.clock.now), tag=1)
            got = []
            for _ in range(recvs.get(ctx.rank, 0)):
                msg = yield from ctx.comm.recv(tag=1)
                # Causality: messages arrive after they were sent.
                assert msg.payload[1] <= ctx.clock.now
                got.append((msg.source, msg.payload))
            return got

        results = cluster.run(program)
        return results, cluster.makespan

    r1, m1 = run()
    r2, m2 = run()
    assert r1 == r2
    assert m1 == m2
    delivered = sum(len(g) for g in r1)
    assert delivered == len(plan)
