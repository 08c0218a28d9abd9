"""Answer invariance over the whole ``Features`` lattice (invariant 3a).

Every ``Features`` value — not the pairs some suite happened to
parametrize — deploys on both backends that read all seven knobs, ingests,
and must return the in-memory oracle's answer from a solo search, a
concurrent drain and both analysis engines; then one back-end dies, and
every answer must stay exact or be flagged ``partial``, never raise.
"""

import dataclasses
import itertools

import networkx as nx
import numpy as np
import pytest

from repro import MSSG, Features, MSSGConfig
from repro.bfs import sample_queries_by_distance
from repro.experiments.harness import scaled_grdb_format
from repro.graphgen import CSRGraph, pubmed_like
from repro.simcluster import FaultPlan
from repro.storage.blockcache import CACHE_POLICIES

#: Small on purpose (the lattice is the point): one scale-free blob plus two
#: detached pairs, so ``components`` has three to find.
EDGES = np.vstack([pubmed_like(100, seed=1), [(200, 201), (300, 301)]])
GRAPH = CSRGraph.from_edges(EDGES)
#: Two (source, dest, hops) of a stratified sample, 3 and 2 hops apart: the
#: suite's time is levels x deployments, and a 4-hop pair costs a quarter more.
QUERIES = sorted(sample_queries_by_distance(GRAPH, 8, seed=0), key=lambda q: -q[2])[1:3]
PAIRS = [(s, d) for s, d, _ in QUERIES]
WANT = [hops for _, _, hops in QUERIES]
COMPONENTS = nx.number_connected_components(nx.Graph(EDGES.tolist()))
FRONTENDS, DEAD_BACKEND = 1, 1

#: Every value of every field: an eighth boolean knob is covered unedited.
LATTICE = [
    Features(*values)
    for values in itertools.product(
        *(
            (False, True) if isinstance(f.default, bool) else CACHE_POLICIES
            for f in dataclasses.fields(Features)
        )
    )
]


def _exact_or_partial(report, got, want, dead):
    assert got == want or (dead and report.partial), report
    assert dead or not report.partial, report


def _check(mssg, dead=False):
    """The drain and both analysis engines against the oracle; failovers seen."""
    reports = []
    if not dead:  # Algorithm 1 (memory) + walk; after a death the drain is the BFS
        path = mssg.query("path", source=PAIRS[0][0], dest=PAIRS[0][1])
        _exact_or_partial(path, len(path.result) - 1, WANT[0], dead=False)
        reports.append(path)
    drain = mssg.query_many(PAIRS)
    for report, want in zip(drain.queries, WANT):
        _exact_or_partial(report, report.result, want, dead)
    wcc = mssg.query("components")
    _exact_or_partial(wcc, wcc.result["num_components"], COMPONENTS, dead)
    return sum(r.failovers for r in reports + drain.queries + [wcc])


def _deploy_and_check(backend, features):
    config = MSSGConfig(
        num_backends=3,
        num_frontends=FRONTENDS,
        backend=backend,
        replication=2,
        # The store must not fit the cache, or a dead device is never read.
        cache_blocks=4,
        grdb_format=scaled_grdb_format(),
        features=features,
    )
    with MSSG(config) as mssg:
        if features.streaming:
            half = len(EDGES) // 2
            mssg.ingest(EDGES[:half])
            mssg.ingest_stream(EDGES[half:])
            mssg.compact()
        else:
            mssg.ingest(EDGES)
        external = mssg.query_bfs(*PAIRS[1], visited="external")
        _exact_or_partial(external, external.result, WANT[1], dead=False)
        assert _check(mssg) == 0
        mssg.set_fault_plan(FaultPlan.kill_node(FRONTENDS + DEAD_BACKEND, at_time=0.0))
        assert _check(mssg, dead=True) > 0, "the death never reached a query"


@pytest.mark.parametrize("backend", ["grDB", "StreamDB"])
def test_every_features_value_answers_like_the_oracle(backend):
    assert len(LATTICE) == 2 ** (len(dataclasses.fields(Features)) - 1) * len(CACHE_POLICIES)
    for features in LATTICE:
        try:
            _deploy_and_check(backend, features)
        except Exception as exc:  # name the value: 128 share this test id
            raise AssertionError(f"{backend} on {features}") from exc
