"""Ablation — declustering strategy (§3.2).

MSSG supports vertex- and edge-level granularity with pluggable
declusterers.  Vertex granularity with a globally-known map lets BFS route
fringe vertices to owners; edge granularity forces fringe broadcast to all
processors.  This sweep measures the search-side price of each choice.
"""

from conftest import run_once

from repro.experiments import PUBMED_S, Deployment, run_search_experiment
from repro.experiments.report import format_series_table

STRATEGIES = ("vertex-rr", "vertex-hash", "edge-rr")
OWNER_ROUTED = ("vertex-rr", "vertex-hash")


def run_decluster_sweep(scale: float):
    series: dict[str, dict[int, float]] = {}
    for strategy in STRATEGIES:
        res = run_search_experiment(
            PUBMED_S,
            Deployment(backend="HashMap", num_backends=8, declustering=strategy),
            scale=scale,
            num_queries=6,
        )
        series[strategy] = dict(res.seconds_by_distance)
    return series


def test_ablation_decluster(benchmark, bench_scale, save_result):
    series = run_once(benchmark, lambda: run_decluster_sweep(bench_scale))
    text = format_series_table(
        "Ablation: declustering strategy (HashMap backend, 8 back-ends)",
        "path length", series,
    )
    save_result("ablation_decluster", text)

    longest = max(series["vertex-rr"])
    # Edge granularity pays for its fringe broadcasts on long searches.
    vertex_best = min(series[s][longest] for s in OWNER_ROUTED)
    assert series["edge-rr"][longest] > vertex_best
    # The owner-routed strategies are close to one another (same
    # communication structure, different maps).
    vertex_worst = max(series[s][longest] for s in OWNER_ROUTED)
    assert vertex_worst < 1.6 * vertex_best
