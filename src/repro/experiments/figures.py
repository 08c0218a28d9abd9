"""One experiment definition per table/figure of chapter 5.

Every function reproduces the corresponding paper artifact at benchmark
scale and returns its data series; ``render=True`` also returns the
plain-text chart the benchmarks print.  The sweeps follow the paper's
setups exactly (node counts, backend sets, knob ablations); only the graph
sizes are scaled (see ``workloads.py``).

Default node counts are the paper's (16 back-ends for the PubMed-S
figures), and the ``scale`` parameter grows the graphs toward paper scale.
"""

from __future__ import annotations

from typing import Mapping

from ..features import Features
from .harness import (
    Deployment,
    SearchResult,
    run_ingest_experiment,
    run_search_experiment,
)
from .report import format_rows, format_series_table
from .workloads import PUBMED_L, PUBMED_S, SYN_2B, WORKLOADS, workload_stats

__all__ = [
    "table_5_1",
    "fig_5_1",
    "fig_5_2",
    "fig_5_3",
    "fig_5_4",
    "fig_5_5",
    "fig_5_6",
    "fig_5_7",
    "fig_5_8",
    "fig_5_9",
]

FIVE_BACKENDS = ("Array", "HashMap", "MySQL", "BerkeleyDB", "grDB")
ALL_SIX = FIVE_BACKENDS + ("StreamDB",)


def table_5_1(scale: float = 1.0, render: bool = True):
    """Table 5.1: statistics for the graphs used in experiments."""
    stats = [workload_stats(WORKLOADS[name], scale) for name in ("PubMed-S", "PubMed-L", "Syn-2B")]
    text = format_rows(
        "Table 5.1: Statistics for graphs used in experiments (scaled)",
        stats[0].header(),
        [s.row() for s in stats],
    )
    return (stats, text) if render else stats


def fig_5_1(scale: float = 1.0, num_queries: int = 12, num_backends: int = 16, render: bool = True):
    """Fig 5.1: search time of the in-memory GraphDBs vs path length
    (PubMed-S, 16 nodes, random queries averaged by path length)."""
    series: dict[str, dict[int, float]] = {}
    for backend in ("Array", "HashMap"):
        res = run_search_experiment(
            PUBMED_S, Deployment(backend=backend, num_backends=num_backends),
            scale=scale, num_queries=num_queries,
        )
        series[backend] = res.seconds_by_distance
    text = format_series_table(
        "Figure 5.1: in-memory GraphDB search performance, PubMed-S",
        "path length", series,
    )
    return (series, text) if render else series


def fig_5_2(scale: float = 1.0, num_queries: int = 12, num_backends: int = 16, render: bool = True):
    """Fig 5.2: BerkeleyDB and grDB with/without their block caches."""
    series: dict[str, dict[int, float]] = {}
    for backend in ("BerkeleyDB", "grDB"):
        for cache_enabled in (True, False):
            label = f"{backend}{'' if cache_enabled else ' (no cache)'}"
            res = run_search_experiment(
                PUBMED_S,
                Deployment(
                    backend=backend, num_backends=num_backends, cache_enabled=cache_enabled
                ),
                scale=scale, num_queries=num_queries,
            )
            series[label] = res.seconds_by_distance
    text = format_series_table(
        "Figure 5.2: effect of the block cache, PubMed-S",
        "path length", series,
    )
    return (series, text) if render else series


def fig_5_3(scale: float = 1.0, num_backends: int = 16, render: bool = True):
    """Fig 5.3: ingestion of PubMed-S, 1 vs 4 front-end ingestion nodes."""
    series: dict[str, dict[int, float]] = {}
    for backend in FIVE_BACKENDS:
        series[backend] = {}
        for frontends in (1, 4):
            res = run_ingest_experiment(
                PUBMED_S,
                Deployment(backend=backend, num_backends=num_backends, num_frontends=frontends),
                scale=scale,
            )
            series[backend][frontends] = res.seconds
    text = format_series_table(
        "Figure 5.3: ingestion time of five GraphDBs, PubMed-S (16 back-ends)",
        "front-ends", series,
    )
    return (series, text) if render else series


def fig_5_4(
    scale: float = 1.0,
    num_queries: int = 12,
    num_backends: int = 16,
    render: bool = True,
    features: Features = Features.paper(),
):
    """Fig 5.4: search time of five GraphDBs vs path length, PubMed-S.

    ``features`` with ``batch_io`` on reruns the figure with batched/coalescing
    fringe expansion (identical results, different access plan) — the
    configuration the batch-I/O ablation compares against this default.
    """
    series: dict[str, dict[int, float]] = {}
    for backend in FIVE_BACKENDS:
        res = run_search_experiment(
            PUBMED_S,
            Deployment(backend=backend, num_backends=num_backends, features=features),
            scale=scale, num_queries=num_queries,
        )
        series[backend] = res.seconds_by_distance
    text = format_series_table(
        "Figure 5.4: search performance of five GraphDBs, PubMed-S",
        "path length", series,
    )
    return (series, text) if render else series


def fig_5_5(scale: float = 1.0, render: bool = True, backend_counts=(4, 8, 16)):
    """Fig 5.5: ingestion of PubMed-L; 8 front-ends, varying back-ends.

    StreamDB replaces the Array line here, as in the paper's chart (its
    "unrivaled ingestion performance" discussion).
    """
    backends = ("HashMap", "MySQL", "BerkeleyDB", "grDB", "StreamDB")
    series: dict[str, dict[int, float]] = {}
    for backend in backends:
        series[backend] = {}
        for p in backend_counts:
            res = run_ingest_experiment(
                PUBMED_L,
                Deployment(backend=backend, num_backends=p, num_frontends=8),
                scale=scale,
            )
            series[backend][p] = res.seconds
    text = format_series_table(
        "Figure 5.5: ingestion time of five GraphDBs, PubMed-L (8 front-ends)",
        "back-ends", series,
    )
    return (series, text) if render else series


_pubmedl_sweep_memo: dict = {}


def _pubmedl_search_sweep(scale: float, num_queries: int, backend_counts) -> Mapping:
    """Shared runs behind Figs 5.6 and 5.7 (same experiments, two views)."""
    key = (scale, num_queries, tuple(backend_counts))
    cached = _pubmedl_sweep_memo.get(key)
    if cached is not None:
        return cached
    backends = ("Array", "HashMap", "StreamDB", "BerkeleyDB", "grDB")
    results: dict[str, dict[int, SearchResult]] = {}
    for backend in backends:
        results[backend] = {}
        for p in backend_counts:
            results[backend][p] = run_search_experiment(
                PUBMED_L,
                Deployment(backend=backend, num_backends=p, num_frontends=1),
                scale=scale, num_queries=num_queries, min_distance=3,
            )
    _pubmedl_sweep_memo[key] = results
    return results


def fig_5_6(scale: float = 1.0, num_queries: int = 8, backend_counts=(4, 8, 16), render: bool = True):
    """Fig 5.6: search execution time on PubMed-L vs back-end count."""
    sweep = _pubmedl_search_sweep(scale, num_queries, backend_counts)
    series = {
        backend: {p: r.mean_seconds for p, r in by_p.items()}
        for backend, by_p in sweep.items()
    }
    text = format_series_table(
        "Figure 5.6: search execution time of five GraphDBs, PubMed-L",
        "back-ends", series,
    )
    return (series, text) if render else series


def fig_5_7(scale: float = 1.0, num_queries: int = 8, backend_counts=(4, 8, 16), render: bool = True):
    """Fig 5.7: aggregate edges/second during search on PubMed-L."""
    sweep = _pubmedl_search_sweep(scale, num_queries, backend_counts)
    series = {
        backend: {p: r.aggregate_eps for p, r in by_p.items()}
        for backend, by_p in sweep.items()
    }
    text = format_series_table(
        "Figure 5.7: aggregate edges/s during search, PubMed-L",
        "back-ends", series, unit="edges/s", fmt="{:>12.0f}",
    )
    return (series, text) if render else series


_syn2b_sweep_memo: dict = {}


def _syn2b_sweep(scale: float, num_queries: int, backend_counts) -> Mapping:
    """Shared grDB-on-Syn-2B runs behind Figs 5.8 and 5.9, with the
    in-memory vs external visited-structure ablation."""
    key = (scale, num_queries, tuple(backend_counts))
    cached = _syn2b_sweep_memo.get(key)
    if cached is not None:
        return cached
    results: dict[str, dict[int, SearchResult]] = {}
    for visited in ("memory", "external"):
        label = "in-memory visited" if visited == "memory" else "external visited"
        results[label] = {}
        for p in backend_counts:
            results[label][p] = run_search_experiment(
                SYN_2B,
                Deployment(backend="grDB", num_backends=p, num_frontends=1),
                scale=scale, num_queries=num_queries, visited=visited, min_distance=3,
            )
    _syn2b_sweep_memo[key] = results
    return results


def fig_5_8(scale: float = 1.0, num_queries: int = 6, backend_counts=(4, 8, 16), render: bool = True):
    """Fig 5.8: grDB search execution time on Syn-2B (visited ablation)."""
    sweep = _syn2b_sweep(scale, num_queries, backend_counts)
    series = {
        label: {p: r.mean_seconds for p, r in by_p.items()}
        for label, by_p in sweep.items()
    }
    text = format_series_table(
        "Figure 5.8: grDB search execution time, Syn-2B",
        "back-ends", series,
    )
    return (series, text) if render else series


def fig_5_9(scale: float = 1.0, num_queries: int = 6, backend_counts=(4, 8, 16), render: bool = True):
    """Fig 5.9: grDB edges/s on Syn-2B (same runs as Fig 5.8)."""
    sweep = _syn2b_sweep(scale, num_queries, backend_counts)
    series = {
        label: {p: r.aggregate_eps for p, r in by_p.items()}
        for label, by_p in sweep.items()
    }
    text = format_series_table(
        "Figure 5.9: grDB aggregate edges/s, Syn-2B",
        "back-ends", series, unit="edges/s", fmt="{:>12.0f}",
    )
    return (series, text) if render else series
