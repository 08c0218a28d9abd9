"""Inputs of one run, made from ``--seed``: graph, queries, references.

The graph's *structure* is a constant of the benchmark, like its size:
``pubmed_like(n, seed=GRAPH_SEED)`` in generator order, and the query
pairs are a prefix of ``sample_queries_by_distance`` on it.  ``--seed``
draws a vertex re-labelling that is applied to both.  Every seed therefore
gives different arrays to ``src/repro`` — other owners (``GID % p``), other
grDB slots and varint gaps — while the amount of graph work stays
comparable between seeds.  Drawing a new
structure per seed was measured first: it moves the virtual metrics by
3-9 % and the query mix by 25 % between seeds, which no bound tight enough
to gate a regression survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bfs import sample_queries_by_distance
from repro.graphgen import CSRGraph, pubmed_like

import deployments as dep
import oracle


@dataclass
class Inputs:
    seed: int
    n_vertices: int
    #: Every undirected edge, re-labelled, in generator (arrival) order.
    edges: np.ndarray
    #: Oracle for the full graph.
    csr: CSRGraph
    #: ``(source, dest, distance)`` on the graph the solo phase queries.
    queries: list[tuple[int, int, int]]
    pagerank_ref: np.ndarray
    component_sizes_ref: list[int]
    #: streamdb-stream only: edge-count boundary visible at each snapshot
    #: id (index 0 = after ``ingest()``), and the two batch lists.
    snapshot_bounds: list[int] = field(default_factory=list)
    pre_batches: list[np.ndarray] = field(default_factory=list)
    drain_batches: list[np.ndarray] = field(default_factory=list)
    _snapshot_csr: dict[int, CSRGraph] = field(default_factory=dict)

    @property
    def base_edges(self) -> np.ndarray:
        """What ``ingest()`` loads: everything, or the streaming base share."""
        return self.edges[: self.snapshot_bounds[0]] if self.snapshot_bounds else self.edges

    def csr_at(self, snapshot_seq: int | None) -> CSRGraph:
        """Oracle graph of exactly the edges visible at ``snapshot_seq``."""
        if snapshot_seq is None or not self.snapshot_bounds:
            return self.csr
        graph = self._snapshot_csr.get(snapshot_seq)
        if graph is None:
            visible = self.edges[: self.snapshot_bounds[snapshot_seq]]
            graph = CSRGraph.from_edges(visible, num_vertices=self.n_vertices)
            self._snapshot_csr[snapshot_seq] = graph
        return graph


def build_inputs(workload: dep.Workload, seed: int, n_vertices: int) -> Inputs:
    """The whole ``setup`` phase except deployment construction."""
    base = pubmed_like(
        n_vertices,
        avg_degree=dep.AVG_DEGREE,
        hub_fraction=dep.HUB_FRACTION,
        seed=dep.GRAPH_SEED,
    )
    relabel = np.random.default_rng(seed).permutation(n_vertices)
    # The generator's hub is vertex 0; it keeps the smallest label, as it has
    # in generator order.  Min-label propagation otherwise takes a different
    # number of rounds per seed (components' virtual time moved by 8 %).
    relabel[np.flatnonzero(relabel == 0)[0]] = relabel[0]
    relabel[0] = 0
    edges = relabel[base]
    csr = CSRGraph.from_edges(edges, num_vertices=n_vertices)

    bounds: list[int] = []
    pre: list[np.ndarray] = []
    drain: list[np.ndarray] = []
    queried = base
    if workload.streaming:
        base_end = int(len(edges) * dep.STREAM_BASE_SHARE)
        pre_end = int(len(edges) * (dep.STREAM_BASE_SHARE + dep.STREAM_PRE_SHARE))
        pre = np.array_split(edges[base_end:pre_end], dep.STREAM_PRE_BATCHES)
        drain = np.array_split(edges[pre_end:], dep.STREAM_DRAIN_BATCHES)
        bounds = [base_end]
        for batch in pre + drain:
            bounds.append(bounds[-1] + len(batch))
        # Solo queries run over base + the pre-streamed overlay.
        queried = base[:pre_end]
    structural = sample_queries_by_distance(
        CSRGraph.from_edges(queried, num_vertices=n_vertices),
        dep.QUERY_POOL,
        seed=dep.GRAPH_SEED,
    )
    need = max(workload.n_solo, workload.n_drain)
    if len(structural) < need:
        raise RuntimeError(
            f"sampled {len(structural)} query pairs, workload {workload.name} needs {need}"
        )
    queries = [(int(relabel[s]), int(relabel[d]), dist) for s, d, dist in structural]
    return Inputs(
        seed=seed,
        n_vertices=n_vertices,
        edges=edges,
        csr=csr,
        queries=queries,
        pagerank_ref=oracle.pagerank_reference(csr, max_iters=dep.PAGERANK_ITERS),
        component_sizes_ref=oracle.component_sizes(csr),
        snapshot_bounds=bounds,
        pre_batches=pre,
        drain_batches=drain,
    )
