"""Experiment harness: builds MSSG deployments and measures ch. 5 metrics.

Each figure of the paper's evaluation chapter is a sweep over (workload,
backend, node counts, knobs) measuring either ingestion time or BFS search
time bucketed by source→destination path length.  This module provides the
two primitive experiments and their result containers; ``figures.py`` maps
them onto the paper's exact sweeps.

Methodology mirrors ch. 5:

* queries are random (s, d) pairs stratified by true path length;
* a few warm-up queries run first, so measurements see the warm block
  caches a long random-query stream would have (the paper averages 100
  random queries per configuration);
* the visited structure is fixed (in-memory) unless a figure ablates it;
* reported times are virtual seconds from the simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import Features
from ..framework import MSSG, MSSGConfig
from ..graphdb.grdb import GrDBFormat
from ..graphgen import CSRGraph
from ..bfs import sample_queries_by_distance
from ..simcluster import DiskProfile, NodeSpec
from ..util.errors import SimulationError
from .workloads import Workload, load_edges

__all__ = [
    "scaled_grdb_format",
    "Deployment",
    "IngestResult",
    "SearchResult",
    "build_and_ingest",
    "run_ingest_experiment",
    "run_search_experiment",
    "default_cache_blocks",
]

#: Per-node cache budget for out-of-core backends, in bytes.  Scaled from
#: the paper's setup just as the graphs are: big enough that a 16-node
#: deployment runs mostly warm, small enough that a 4-node deployment of
#: the large graph thrashes (the Fig. 5.6 StreamDB crossover regime).
DEFAULT_CACHE_BYTES = 64 << 10

#: The harness node models the paper's 8 GB machines *scaled to the scaled
#: graphs*: a per-node OS page cache that holds a 16-way partition of the
#: large graph comfortably but thrashes on a 4-way partition (the regime
#: behind Fig. 5.6's StreamDB crossover and Fig. 5.8's grDB drop-off), and
#: a physical seek cost shrunk in proportion to the ~3 orders of magnitude
#: of graph downscaling so disk-vs-CPU balance carries over.
EXPERIMENT_NODE_SPEC = NodeSpec(
    disk=DiskProfile(seek_seconds=2e-4, os_cache_bytes=1 << 20)
)


def scaled_grdb_format() -> GrDBFormat:
    """The paper's 6-level geometry with blocks/files scaled to mini graphs.

    Capacities stay (2, 4, 16, 256, 4K, 16K) as in §4.1.6; block sizes
    shrink 8x (512 B base instead of 4 KB) and the max file size shrinks to
    1 MB so multi-file layouts still occur at benchmark scale.
    """
    return GrDBFormat(
        capacities=(2, 4, 16, 256, 4096, 16384),
        block_sizes=(512, 512, 512, 4096, 32768, 262144),
        max_file_bytes=1 << 20,
    )


def default_cache_blocks(backend: str, cache_bytes: int = DEFAULT_CACHE_BYTES) -> int:
    """Translate a per-node cache byte budget into backend cache units."""
    if backend == "grDB":
        return max(1, cache_bytes // 512)  # scaled grDB block
    if backend == "BerkeleyDB":
        return max(1, cache_bytes // 4096)  # B-tree page
    return 0  # in-memory / StreamDB / MySQL(own index cache) take no budget


@dataclass(frozen=True)
class Deployment:
    """One point in a figure's sweep."""

    backend: str
    num_backends: int
    num_frontends: int = 1
    declustering: str = "vertex-rr"
    cache_bytes: int = DEFAULT_CACHE_BYTES
    cache_enabled: bool = True
    window_size: int = 2048
    growth_policy: str = "link"
    #: Figures run on ``paper()``: they reproduce the paper's prototype, and
    #: every knob moves some device's bytes or timeline, so they stay
    #: bit-identical; an ablation bench flips one with ``dataclasses.replace``.
    features: Features = Features.paper()


@dataclass
class IngestResult:
    workload: str
    deployment: Deployment
    seconds: float
    edges: int

    @property
    def edges_per_second(self) -> float:
        return self.edges / self.seconds if self.seconds else float("inf")


@dataclass
class SearchResult:
    workload: str
    deployment: Deployment
    #: path length -> mean query seconds
    seconds_by_distance: dict[int, float] = field(default_factory=dict)
    #: path length -> mean aggregate edges/second during the query
    eps_by_distance: dict[int, float] = field(default_factory=dict)
    num_queries: int = 0
    total_seconds: float = 0.0
    total_edges_scanned: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.num_queries if self.num_queries else 0.0

    @property
    def aggregate_eps(self) -> float:
        return self.total_edges_scanned / self.total_seconds if self.total_seconds else 0.0


def build_and_ingest(
    workload: Workload, deployment: Deployment, scale: float = 1.0
) -> tuple[MSSG, np.ndarray, float]:
    """Deploy MSSG per ``deployment`` and ingest the workload.

    Returns ``(mssg, edges, ingest_seconds)``; callers own closing.
    """
    edges = load_edges(workload, scale)
    cache_blocks = (
        default_cache_blocks(deployment.backend, deployment.cache_bytes)
        if deployment.cache_enabled
        else 0
    )
    mssg = MSSG(
        MSSGConfig(
            num_backends=deployment.num_backends,
            num_frontends=deployment.num_frontends,
            backend=deployment.backend,
            declustering=deployment.declustering,
            window_size=deployment.window_size,
            cache_blocks=cache_blocks,
            grdb_format=scaled_grdb_format(),
            growth_policy=deployment.growth_policy,
            features=deployment.features,
            node_spec=EXPERIMENT_NODE_SPEC,
        )
    )
    report = mssg.ingest(edges)
    return mssg, edges, report.seconds


def run_ingest_experiment(
    workload: Workload, deployment: Deployment, scale: float = 1.0
) -> IngestResult:
    mssg, edges, seconds = build_and_ingest(workload, deployment, scale)
    mssg.close()
    return IngestResult(
        workload=workload.name, deployment=deployment, seconds=seconds, edges=len(edges)
    )


_query_memo: dict = {}


def queries_for(
    workload: Workload,
    scale: float,
    num_queries: int,
    seed: int = 0,
    min_distance: int = 1,
    max_distance: int | None = None,
) -> list[tuple[int, int, int]]:
    """Stratified (source, dest, distance) queries, memoized per workload."""
    key = (workload.name, scale, num_queries, seed, min_distance, max_distance)
    queries = _query_memo.get(key)
    if queries is None:
        edges = load_edges(workload, scale)
        graph = CSRGraph.from_edges(edges)
        queries = sample_queries_by_distance(
            graph, num_queries, seed=seed, min_distance=min_distance, max_distance=max_distance
        )
        _query_memo[key] = queries
    return queries


def run_search_experiment(
    workload: Workload,
    deployment: Deployment,
    scale: float = 1.0,
    num_queries: int = 10,
    warmup_queries: int = 2,
    pipelined: bool = False,
    visited: str = "memory",
    seed: int = 0,
    min_distance: int = 1,
    max_distance: int | None = None,
    mssg: MSSG | None = None,
    **query_kw,
) -> SearchResult:
    """Measure BFS time by path length on one deployment.

    Pass a pre-built ``mssg`` to amortize ingestion across experiments that
    sweep query-side knobs only (the harness will not close it).
    """
    own = mssg is None
    if own:
        mssg, _, _ = build_and_ingest(workload, deployment, scale)
    queries = queries_for(
        workload, scale, num_queries, seed=seed,
        min_distance=min_distance, max_distance=max_distance,
    )
    result = SearchResult(workload=workload.name, deployment=deployment)
    try:
        for s, d, _ in queries[: max(0, warmup_queries)]:
            mssg.query_bfs(s, d, pipelined=pipelined, visited=visited, **query_kw)
        buckets: dict[int, list[tuple[float, float]]] = {}
        for s, d, dist in queries:
            report = mssg.query_bfs(s, d, pipelined=pipelined, visited=visited, **query_kw)
            if report.result != dist:
                # Record the failing query before raising, so a wrong answer
                # in a long sweep names exactly what broke; an assert here
                # would also vanish under ``python -O``.
                result.num_queries += 1
                result.total_seconds += report.seconds
                result.total_edges_scanned += report.edges_scanned
                raise SimulationError(
                    f"BFS on {deployment.backend} x{deployment.num_backends} "
                    f"({workload.name}) returned distance {report.result} for "
                    f"query {s}->{d}, expected {dist}"
                )
            buckets.setdefault(dist, []).append((report.seconds, report.edges_per_second))
            result.num_queries += 1
            result.total_seconds += report.seconds
            result.total_edges_scanned += report.edges_scanned
        for dist, samples in sorted(buckets.items()):
            result.seconds_by_distance[dist] = float(np.mean([t for t, _ in samples]))
            result.eps_by_distance[dist] = float(np.mean([e for _, e in samples]))
    finally:
        if own:
            mssg.close()
    return result
