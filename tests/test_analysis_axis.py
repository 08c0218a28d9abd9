"""Answer invariance along the *analysis* axis (invariant 3a).

Beside ``test_features_lattice.py`` (every ``Features`` value, a fixed set of
operations): here the features are the defaults and the operations are every
analysis a ``QueryService`` registers — a name added to the registry fails
here until it has an oracle.  Healthy, each must answer like the in-memory
reference; with a back-end's devices dead it must answer like the reference
or say ``partial``, and never raise.  Two graphs: a scale-free blob whose
partitions all keep a live holder at ``replication=2``, and an *island* — a
component stored wholly on one back-end — whose replica chain dies whole.
"""

import importlib.util
import resource
import signal
from contextlib import contextmanager
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro import MSSG, Features, MSSGConfig
from repro.bfs import bfs_levels, sample_queries_by_distance
from repro.experiments.harness import scaled_grdb_format
from repro.graphdb.registry import BACKENDS
from repro.graphgen import CSRGraph, pubmed_like
from repro.simcluster import DiskFault, FaultPlan


def _twoclock_oracle():
    """The benchmark's numpy references and checks, imported — not forked."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "twoclock" / "oracle.py"
    spec = importlib.util.spec_from_file_location("twoclock_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _twoclock_oracle()

PAGERANK_ITERS = 5
FRONTENDS = 1


def _equals(want):
    return lambda report: None if report.result == want else f"{report.result}, oracle says {want}"


def _oracles(edges, source, dest):
    """name -> (parameters, check(report) -> None or what is wrong with the
    answer) for one graph and one search."""
    graph = CSRGraph.from_edges(edges)
    nxg = nx.Graph(edges.tolist())
    levels = bfs_levels(graph, source)
    hops = int(levels[dest])
    #: Every vertex: more lists than a back-end's cache can keep.
    probe = np.unique(edges).tolist()

    def within(h):
        return [v for v, lev in enumerate(levels) if 0 <= lev <= h]

    def check_path(report):
        chain = report.result
        if chain is None or len(chain) - 1 != hops or (chain[0], chain[-1]) != (source, dest):
            return f"chain {chain}, oracle says {hops} hops"
        if not all(nxg.has_edge(a, b) for a, b in zip(chain, chain[1:])):
            return f"chain {chain} steps over an edge that is not stored"
        return None

    search = dict(source=source, dest=dest)
    return {
        "bfs": (search, lambda r: oracle.check_bfs(r, hops)),
        "pipelined-bfs": (search, lambda r: oracle.check_bfs(r, hops)),
        "typed-bfs": (dict(search, allowed_codes=[1]), lambda r: oracle.check_bfs(r, hops)),
        "path": (search, check_path),
        "degree": (dict(vertices=probe), _equals({v: int(graph.degree(v)) for v in probe})),
        "neighborhood": (dict(source=source, hops=2), _equals(len(within(2)))),
        "pagerank": (
            dict(max_iters=PAGERANK_ITERS, return_ranks=True),
            lambda r: oracle.check_pagerank(r, oracle.pagerank_reference(graph, PAGERANK_ITERS)),
        ),
        "components": ({}, lambda r: oracle.check_components(r, oracle.component_sizes(graph))),
    }


#: One scale-free blob plus two detached pairs (three components to find).
EDGES = np.vstack([pubmed_like(150, seed=1), [(200, 201), (300, 301)]])
SOURCE, DEST, _ = max(
    sample_queries_by_distance(CSRGraph.from_edges(EDGES), 8, seed=0), key=lambda q: q[2]
)
ANALYSES = _oracles(EDGES, SOURCE, DEST)
DEAD_BACKEND = 1

#: Under vertex round-robin over four back-ends, the triangle 3-7-11 and the
#: edge 11-15 are stored wholly on back-end 3; the other component (triangle
#: 0-1-2 and three paths off it, ids 0-15 all present) never touches it.
ISLAND_EDGES = np.array(
    [(3, 7), (7, 11), (3, 11), (11, 15),
     (0, 1), (0, 2), (1, 2), (0, 10), (10, 5), (1, 12), (12, 6),
     (0, 4), (4, 13), (13, 8), (4, 14), (14, 9)]
)
ISLAND = _oracles(ISLAND_EDGES, 5, 9)


def _deploy(backend, replication, edges=EDGES, num_backends=3, cache_blocks=4, **config):
    config = MSSGConfig(
        num_backends=num_backends,
        num_frontends=FRONTENDS,
        backend=backend,
        replication=replication,
        # The store must not fit the cache, or a dead device is never read.
        cache_blocks=cache_blocks,
        grdb_format=scaled_grdb_format(),
        **config,
    )
    mssg = MSSG(config)
    mssg.ingest(edges)
    mssg.query("load-vertex-types", type_codes={int(v): 1 for v in np.unique(edges)})
    return mssg


def _ask(mssg, analysis, dead, table=ANALYSES):
    params, check = table[analysis]
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


@pytest.mark.parametrize("analysis", sorted(ISLAND))
@pytest.mark.parametrize("replication, dead", [(1, (3,)), (2, (3, 0))], ids=["1", "2"])
def test_an_island_on_a_wholly_dead_chain_is_said_partial(replication, dead, analysis):
    # Every holder of partition 3 dead: nobody can even enumerate the island,
    # so nothing is dropped that could be counted — only ``partial`` can say
    # it.
    with _deploy("grDB", replication, ISLAND_EDGES, num_backends=4, cache_blocks=0) as mssg:
        _ask(mssg, analysis, dead=False, table=ISLAND)
        mssg.set_fault_plan(FaultPlan([DiskFault(node=FRONTENDS + q, at_time=0.0) for q in dead]))
        _ask(mssg, analysis, dead=True, table=ISLAND)


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


class _Overran(Exception):
    pass


@contextmanager
def _bounded(seconds=60, headroom=1 << 30):
    """Fail a case that hangs or balloons instead of stalling the run or the
    host: an alarm after ``seconds``, and an address-space cap ``headroom``
    bytes above what the process maps now, so a visited store that
    materializes pages toward a huge id raises ``MemoryError``."""

    def overran(signum, frame):
        raise _Overran(f"case ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    limits = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as f:
        mapped = int(f.read().split()[0]) * resource.getpagesize()
    cap = mapped + headroom
    if limits[1] != resource.RLIM_INFINITY:
        cap = min(cap, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, limits)


@pytest.mark.parametrize(
    "source", [int(EDGES.max()) + 1000, -5, 1 << 40], ids=["max+1000", "-5", "2^40"]
)
@pytest.mark.parametrize("direction_opt", [True, False], ids=["hybrid", "top-down"])
@pytest.mark.parametrize("visited", ["memory", "external"])
def test_an_out_of_space_source_is_not_found_in_any_visited_medium(visited, direction_opt, source):
    # A search from outside [0, num_vertices) ends before it marks anything,
    # so no medium indexes past a dense array, wraps a negative id onto a
    # real slot, asks a paged file for page -1 or materializes pages up to
    # 2^40 — whether or not the hybrid is on.
    with _deploy("Array", 1, features=Features.production()) as mssg, _bounded():
        for report in (
            mssg.query_bfs(source, DEST, visited=visited, direction_opt=direction_opt),
            mssg.query_many(
                [(source, DEST)], visited=visited, direction_opt=direction_opt
            ).queries[0],
        ):
            assert (report.result, report.levels, report.partial) == (None, 0, False), report


@pytest.mark.parametrize("preset", [Features.production, Features.paper], ids=["prod", "paper"])
@pytest.mark.parametrize("replication", [1, 2])  # grDB: modulo / identity id map
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_negative_id_has_no_adjacency_on_any_backend(backend, replication, preset):
    # A search from a negative source ends before it reads anything, but
    # ``degree`` asks each store for the id's adjacency directly.  Array's
    # dense xadj wrapped -5 onto vertex n - 5 (degree 1), grDB's id map gave
    # it a slot (a storage error), BerkeleyDB could not encode the key.  No
    # store holds a negative id, so every one answers 0.
    edges = pubmed_like(150, seed=1)
    negatives = [-1, -5, -int(edges.max())]
    with _deploy(backend, replication, edges, features=preset()) as mssg:
        assert mssg.query("degree", vertices=negatives).result == dict.fromkeys(negatives, 0)
        for source in negatives:
            report = mssg.query_bfs(source, 0, direction_opt=False)
            assert (report.result, report.levels, report.partial) == (None, 0, False), report
