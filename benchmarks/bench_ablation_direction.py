"""Ablation — direction-optimizing BFS (pure top-down vs push/pull hybrid).

Not a paper figure: the thesis prototype searched pure top-down, and its
§4.2 future-work list is where this optimization points.  The ablation
measures what the Beamer-style hybrid buys on PubMed-S at 16 back-ends,
bucketed by path length as in ch. 5's methodology.

Expected shape, tied to the Fig 5.6 crossover: grDB and BerkeleyDB pay
per-vertex random access during the wide mid-BFS levels, exactly the
regime where the bottom-up pull (one sequential storage scan + bitmap
fringe + early exit) wins — long-path queries spend most of their time
there.  StreamDB gains nothing: its top-down expansion already replays
the whole log sequentially, so the hybrid's pull levels only re-buy what
the backend had built in (the same reason StreamDB won the low-node-count
end of Fig 5.6 in the first place).

Results must be an access-plan change only — the harness asserts every
query's BFS distance in both modes and that the modes agree.
"""

import dataclasses

from conftest import run_once

from repro import Features
from repro.experiments import PUBMED_S, Deployment
from repro.experiments.harness import build_and_ingest, queries_for
from repro.experiments.report import format_series_table

#: "Long path" threshold for the headline claim: >= 6 hops crosses the
#: whole graph (PubMed-S' effective diameter is ~6), maximizing time spent
#: in wide mid-BFS levels.
LONG_HOPS = 6

MODES = (("top-down", False), ("hybrid", True))


def _queries(scale: float, num_queries: int):
    """Stratified short queries plus a dedicated long-path set."""
    short = queries_for(PUBMED_S, scale, num_queries, seed=0, min_distance=2)
    longq = queries_for(PUBMED_S, scale, 4, seed=17, min_distance=LONG_HOPS)
    if len(longq) < 2:
        # Sub-scale smoke graphs have few >= 6-hop pairs; take the deepest
        # bucket that exists so the long-path series stays populated.
        longq = queries_for(PUBMED_S, scale, 4, seed=17, min_distance=LONG_HOPS - 1)
    return short + longq, min(d for _, _, d in longq)


def run_direction_sweep(backend: str, scale: float, num_queries: int = 6):
    queries, long_hops = _queries(scale, num_queries)
    series: dict[str, dict[int, float]] = {}
    aux: dict[str, dict[str, float]] = {}
    answers: dict[str, list[int]] = {}
    for label, opt in MODES:
        dep = Deployment(
            backend=backend,
            num_backends=16,
            features=dataclasses.replace(Features.paper(), direction_opt=opt),
        )
        mssg, _, _ = build_and_ingest(PUBMED_S, dep, scale)
        try:
            buckets: dict[int, list[float]] = {}
            a = {
                "seconds": 0.0, "long_seconds": 0.0, "edges_scanned": 0,
                "edges_examined": 0, "edges_skipped": 0, "bottom_up_levels": 0,
            }
            answers[label] = []
            for s, d, dist in queries:
                report = mssg.query_bfs(s, d)
                assert report.result == dist, (
                    f"{backend}/{label}: {s}->{d} returned {report.result}, "
                    f"expected {dist}"
                )
                answers[label].append(report.result)
                buckets.setdefault(dist, []).append(report.seconds)
                a["seconds"] += report.seconds
                if dist >= long_hops:
                    a["long_seconds"] += report.seconds
                a["edges_scanned"] += report.edges_scanned
                a["edges_examined"] += report.edges_examined
                a["edges_skipped"] += report.edges_skipped
                a["bottom_up_levels"] += sum(
                    x == "bottom-up" for x in report.directions
                )
        finally:
            mssg.close()
        series[label] = {
            dist: sum(ts) / len(ts) for dist, ts in sorted(buckets.items())
        }
        aux[label] = a
    # The hybrid is an access-plan change only: zero change to BFS levels.
    assert answers["top-down"] == answers["hybrid"]
    return series, aux


def _render(backend: str, series, aux) -> str:
    text = format_series_table(
        f"Ablation: direction-optimizing BFS ({backend}, PubMed-S, 16 back-ends)",
        "path length", series,
    )
    lines = [text, ""]
    for label, a in aux.items():
        lines.append(
            f"  {label:9s} total={a['seconds']:.5f}s long(>={LONG_HOPS}hop)="
            f"{a['long_seconds']:.5f}s edges_scanned={a['edges_scanned']:.0f} "
            f"examined={a['edges_examined']:.0f} skipped={a['edges_skipped']:.0f} "
            f"bottom_up_levels={a['bottom_up_levels']:.0f}"
        )
    return "\n".join(lines)


def test_ablation_direction_grdb(benchmark, bench_scale, save_result):
    series, aux = run_once(benchmark, lambda: run_direction_sweep("grDB", bench_scale))
    save_result("ablation_direction_grdb", _render("grDB", series, aux))

    td, hy = aux["top-down"], aux["hybrid"]
    # The hybrid really pulled, and pure top-down really never does.
    assert hy["bottom_up_levels"] > 0
    assert td["edges_examined"] == 0 and td["edges_skipped"] == 0
    # Far fewer adjacency entries touched: the bitmap + early exit replace
    # full per-vertex expansion of the wide mid-BFS levels.
    assert hy["edges_scanned"] < td["edges_scanned"]
    # Hybrid wins outright on the whole stream...
    assert hy["seconds"] < td["seconds"]
    # ...and cuts long-path searches by >= 25% (the headline number needs
    # full-scale graphs; smoke scales shrink the mid-BFS bulge).
    if bench_scale >= 1.0:
        assert hy["long_seconds"] <= 0.75 * td["long_seconds"]


def test_ablation_direction_bdb(benchmark, bench_scale, save_result):
    series, aux = run_once(
        benchmark, lambda: run_direction_sweep("BerkeleyDB", bench_scale)
    )
    save_result("ablation_direction_bdb", _render("BerkeleyDB", series, aux))

    td, hy = aux["top-down"], aux["hybrid"]
    # Same story as grDB: leaf-chain range scans beat per-key descents on
    # the wide levels.
    assert hy["edges_scanned"] < td["edges_scanned"]
    assert hy["seconds"] < td["seconds"]


def test_ablation_direction_streamdb(benchmark, bench_scale, save_result):
    series, aux = run_once(
        benchmark, lambda: run_direction_sweep("StreamDB", bench_scale)
    )
    save_result("ablation_direction_streamdb", _render("StreamDB", series, aux))

    td, hy = aux["top-down"], aux["hybrid"]
    # The scan-everything backend was already doing sequential I/O every
    # level, so the hybrid shrinks the *CPU-side* edge visits...
    assert hy["edges_scanned"] < td["edges_scanned"]
    assert hy["bottom_up_levels"] > 0
    # ...but buys no long-path win — there is no random access to remove
    # (the same property that won StreamDB the 4-node end of Fig 5.6).
    assert hy["long_seconds"] > 0.75 * td["long_seconds"]
