"""Ablation — semi-external-memory mode (grDB and StreamDB).

Not a paper figure: the paper's prototype is fully out-of-core — vertex
metadata, visited levels, and adjacency all live behind the storage
engine, and the chapter-5 figures keep that discipline
(``Deployment.semi_external`` defaults off so the committed tables stay
bit-identical).  This ablation flips the knob on and measures what the
FlashGraph/GraphMP-style split buys: per-vertex state (degree census, id
maps, visited levels) pinned in resident arrays, a block→vertex-extent
directory that lets sparse frontiers fetch only the adjacency blocks
holding active sources, and a pinned cache segment whole-graph sweeps
cannot evict.

Run cache-starved (8 KB per node) with the external visited structure and
the direction-optimizing hybrid, so all three layers are load-bearing:
visited paging, degree lookups, and frontier-driven block selection all
hit devices in the off configuration.  Device traffic is summed over
*every* device of every node — including the visited scratch disks — so
the pinned-visited savings are counted, not hidden.  BFS answers are
identical in both modes: the harness asserts every distance against
ground truth, and this file additionally asserts the two sweeps agree
bucket for bucket.  A concurrent ``query_many`` drain at the end checks
the mode composes with shared scans and the 2q pool (answers identical,
latency no worse).
"""

import dataclasses

from conftest import run_once

from repro import Features
from repro.experiments import PUBMED_S, Deployment, run_search_experiment
from repro.experiments.harness import build_and_ingest, queries_for
from repro.experiments.report import format_series_table

#: Small enough that PubMed-S working sets spill out of the block cache on
#: 16 nodes, so selective I/O has device traffic to avoid.
CACHE_BYTES = 8 << 10

MODES = (("off", False), ("on", True))


def _device_stats(mssg):
    """Traffic over every device of every node, visited scratch included."""
    reads = moved = 0
    for node in mssg.cluster.nodes:
        for dev in node._disks.values():
            reads += dev.stats.reads
            moved += dev.stats.bytes_read + dev.stats.bytes_written
    return {"reads": reads, "bytes_moved": moved}


def _deployment(backend: str, semi: bool) -> Deployment:
    return Deployment(
        backend=backend,
        num_backends=16,
        cache_bytes=CACHE_BYTES,
        # shared_scans: the closing drain's committed numbers share sweeps.
        features=dataclasses.replace(
            Features.paper(), direction_opt=True, shared_scans=True, semi_external=semi
        ),
    )


def run_semiem_sweep(backend: str, scale: float, num_queries: int = 6):
    series: dict[str, dict[int, float]] = {}
    aux: dict[str, dict[str, float]] = {}
    for label, semi in MODES:
        dep = _deployment(backend, semi)
        mssg, _, ingest_seconds = build_and_ingest(PUBMED_S, dep, scale)
        try:
            ingest_stats = _device_stats(mssg)
            res = run_search_experiment(
                PUBMED_S,
                dep,
                scale=scale,
                num_queries=num_queries,
                visited="external",
                mssg=mssg,
            )
            query_stats = _device_stats(mssg)
            pinned = sum(db.pinned_resident_bytes() for db in mssg.dbs)
            series[label] = dict(res.seconds_by_distance)
            aux[label] = {
                "ingest_seconds": ingest_seconds,
                "query_seconds": res.total_seconds,
                "query_reads": query_stats["reads"] - ingest_stats["reads"],
                "query_bytes_moved": (
                    query_stats["bytes_moved"] - ingest_stats["bytes_moved"]
                ),
                "pinned_bytes": pinned,
            }
        finally:
            mssg.close()
    return series, aux


def run_semiem_drain(backend: str, scale: float, num_queries: int = 8):
    """Concurrent serving: the same query batch drained under both modes."""
    out: dict[str, dict[str, float]] = {}
    queries = queries_for(PUBMED_S, scale, num_queries)
    for label, semi in MODES:
        dep = _deployment(backend, semi)
        mssg, _, _ = build_and_ingest(PUBMED_S, dep, scale)
        try:
            report = mssg.query_many(
                [(s, d) for s, d, _ in queries], visited="external"
            )
            answers = [r.result for r in report.queries]
            assert answers == [dist for _, _, dist in queries], (
                f"{backend} semi_external={semi} drain answers {answers}"
            )
            out[label] = {
                "drain_seconds": report.seconds,
                "answers": answers,
            }
        finally:
            mssg.close()
    return out


def _render(backend: str, series, aux, drain) -> str:
    text = format_series_table(
        f"Ablation: semi-external memory ({backend}, PubMed-S, 16 back-ends, "
        "8 KB cache, external visited, direction-opt)",
        "path length",
        series,
    )
    lines = [text, ""]
    for label, a in aux.items():
        lines.append(
            f"  semi-EM {label:3s} ingest={a['ingest_seconds']:.5f}s "
            f"query={a['query_seconds']:.5f}s "
            f"query_reads={a['query_reads']:.0f} "
            f"query_bytes={a['query_bytes_moved']:.0f} "
            f"pinned_bytes={a['pinned_bytes']:.0f}"
        )
    off, on = aux["off"], aux["on"]
    lines.append(
        f"  query reads ratio (on/off): "
        f"{on['query_reads'] / max(off['query_reads'], 1):.3f}"
    )
    lines.append(
        f"  query seconds ratio (on/off): "
        f"{on['query_seconds'] / max(off['query_seconds'], 1e-12):.3f}"
    )
    lines.append(
        f"  query_many drain seconds: off={drain['off']['drain_seconds']:.5f} "
        f"on={drain['on']['drain_seconds']:.5f}"
    )
    return "\n".join(lines)


def _check(series, aux, drain):
    # Same workload, same queries: the distance buckets must agree exactly
    # (each mode's distances were already asserted against ground truth).
    assert set(series["off"]) == set(series["on"])
    # Pinned vertex state + selective I/O must actually keep devices idle.
    assert aux["on"]["query_reads"] < aux["off"]["query_reads"]
    assert aux["on"]["query_seconds"] < aux["off"]["query_seconds"]
    assert aux["on"]["pinned_bytes"] > 0 and aux["off"]["pinned_bytes"] == 0
    # Concurrent serving: answers identical, latency flat or better.
    assert drain["on"]["answers"] == drain["off"]["answers"]
    assert (
        drain["on"]["drain_seconds"]
        <= drain["off"]["drain_seconds"] * 1.05
    )


def test_ablation_semiem_grdb(benchmark, bench_scale, save_result):
    def sweep():
        series, aux = run_semiem_sweep("grDB", bench_scale)
        drain = run_semiem_drain("grDB", bench_scale)
        return series, aux, drain

    series, aux, drain = run_once(benchmark, sweep)
    save_result("ablation_semiem_grdb", _render("grDB", series, aux, drain))
    _check(series, aux, drain)


def test_ablation_semiem_streamdb(benchmark, bench_scale, save_result):
    def sweep():
        series, aux = run_semiem_sweep("StreamDB", bench_scale)
        drain = run_semiem_drain("StreamDB", bench_scale)
        return series, aux, drain

    series, aux, drain = run_once(benchmark, sweep)
    save_result("ablation_semiem_streamdb", _render("StreamDB", series, aux, drain))
    _check(series, aux, drain)
