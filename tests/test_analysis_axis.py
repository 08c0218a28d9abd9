"""Answer invariance along the *analysis* axis (invariant 3a).

Beside ``test_features_lattice.py`` (every ``Features`` value, a fixed set of
operations): here the features are the defaults and the operations are every
analysis a ``QueryService`` registers — a name added to the registry fails
here until it has an oracle.  Healthy, each must answer like the in-memory
reference; with a back-end's devices dead it must answer like the reference
or say ``partial``, and never raise.
"""

import importlib.util
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import bfs_levels, sample_queries_by_distance
from repro.experiments.harness import scaled_grdb_format
from repro.graphgen import CSRGraph, pubmed_like
from repro.simcluster import FaultPlan


def _twoclock_oracle():
    """The benchmark's numpy references and checks, imported — not forked."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "twoclock" / "oracle.py"
    spec = importlib.util.spec_from_file_location("twoclock_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _twoclock_oracle()

#: One scale-free blob plus two detached pairs (three components to find).
EDGES = np.vstack([pubmed_like(150, seed=1), [(200, 201), (300, 301)]])
GRAPH = CSRGraph.from_edges(EDGES)
NX = nx.Graph(EDGES.tolist())
SOURCE, DEST, HOPS = max(sample_queries_by_distance(GRAPH, 8, seed=0), key=lambda q: q[2])
#: Every vertex: more lists than a back-end's four cache blocks can keep.
PROBE = np.unique(EDGES).tolist()
PAGERANK_ITERS = 5
FRONTENDS, DEAD_BACKEND = 1, 1


def _check_path(report):
    chain = report.result
    if chain is None or len(chain) - 1 != HOPS or (chain[0], chain[-1]) != (SOURCE, DEST):
        return f"chain {chain}, oracle says {HOPS} hops"
    if not all(NX.has_edge(a, b) for a, b in zip(chain, chain[1:])):
        return f"chain {chain} steps over an edge that is not stored"
    return None


def _equals(want):
    return lambda report: None if report.result == want else f"{report.result}, oracle says {want}"


def _within(hops):
    return [v for v, lev in enumerate(bfs_levels(GRAPH, SOURCE)) if 0 <= lev <= hops]


_SEARCH = dict(source=SOURCE, dest=DEST)
#: name -> (parameters, check(report) -> None or what is wrong with the answer).
ANALYSES = {
    "bfs": (_SEARCH, lambda r: oracle.check_bfs(r, HOPS)),
    "pipelined-bfs": (_SEARCH, lambda r: oracle.check_bfs(r, HOPS)),
    "typed-bfs": (dict(_SEARCH, allowed_codes=[1]), lambda r: oracle.check_bfs(r, HOPS)),
    "path": (_SEARCH, _check_path),
    "degree": (dict(vertices=PROBE), _equals({v: int(GRAPH.degree(v)) for v in PROBE})),
    "neighborhood": (dict(source=SOURCE, hops=2), _equals(len(_within(2)))),
    "ego-net": (
        dict(source=SOURCE, hops=2),
        lambda r: None if r.result["vertices"] == _within(2) else "not the 2-hop ball",
    ),
    "pagerank": (
        dict(max_iters=PAGERANK_ITERS, return_ranks=True),
        lambda r: oracle.check_pagerank(r, oracle.pagerank_reference(GRAPH, PAGERANK_ITERS)),
    ),
    "components": ({}, lambda r: oracle.check_components(r, oracle.component_sizes(GRAPH))),
    "triangles": (
        {},
        lambda r: None
        if r.result["triangles"] == sum(nx.triangles(NX).values()) // 3
        else f"{r.result['triangles']} triangles",
    ),
}


def _deploy(backend, replication):
    config = MSSGConfig(
        num_backends=3,
        num_frontends=FRONTENDS,
        backend=backend,
        replication=replication,
        # The store must not fit the cache, or a dead device is never read.
        cache_blocks=4,
        grdb_format=scaled_grdb_format(),
    )
    mssg = MSSG(config)
    mssg.ingest(EDGES)
    mssg.query("load-vertex-types", type_codes={int(v): 1 for v in np.unique(EDGES)})
    return mssg


def _ask(mssg, analysis, dead):
    params, check = ANALYSES[analysis]
    report = mssg.query(analysis, **params)  # must not raise, failover on or off
    wrong = None if dead and report.partial else check(report)
    assert wrong is None and (dead or not report.partial), (wrong, report)
    return report


def test_every_registered_analysis_has_an_oracle_here():
    with _deploy("Array", 1) as mssg:
        assert set(mssg.queries.analyses()) - {"load-vertex-types"} == set(ANALYSES)


@pytest.mark.parametrize("analysis", sorted(ANALYSES))
@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("backend", ["grDB", "Array"])
def test_answers_like_the_oracle_or_says_partial(backend, replication, analysis):
    with _deploy(backend, replication) as mssg:
        _ask(mssg, analysis, dead=False)
        mssg.set_fault_plan(FaultPlan.kill_node(FRONTENDS + DEAD_BACKEND, at_time=0.0))
        report = _ask(mssg, analysis, dead=True)
        if backend == "grDB":  # Array keeps nothing on a device
            # The death reached the analysis, and it said so.
            assert report.partial if replication == 1 else report.failovers, report


@pytest.mark.parametrize("schedule", [None, ("bottom-up",), ("top-down", "bottom-up")])
@pytest.mark.parametrize("analysis", ["bfs", "pipelined-bfs", "typed-bfs", "path"])
def test_an_id_outside_the_id_space_is_not_found(analysis, schedule):
    beyond = int(EDGES.max()) + 1000
    with _deploy("Array", 1) as mssg:
        extra = {"allowed_codes": [1]} if analysis == "typed-bfs" else {}
        for source, dest in [(beyond, DEST), (SOURCE, beyond), (-5, DEST)]:
            report = mssg.query(
                analysis, source=source, dest=dest, direction_schedule=schedule, **extra
            )
            assert report.result is None and not report.partial, (source, dest, report)
        drained = mssg.query_many([(beyond, DEST)], direction_schedule=schedule).queries[0]
        assert drained.result is None and not drained.partial
