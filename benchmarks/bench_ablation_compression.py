"""Ablation — delta+varint compressed adjacency (grDB and StreamDB).

Not a paper figure: the paper's prototype stored raw 8-byte slot words in
grDB sub-blocks and raw 16-byte edge records in the StreamDB log, and the
chapter-5 figures keep that layout (``Deployment.compress_adjacency``
defaults off so the committed tables stay bit-identical).  This ablation
flips the knob on and measures what the encoding buys: sorted neighbor
lists become delta+varint streams, so each sub-block holds more neighbors
(shorter chains, fewer device reads) and each log record ships fewer bytes
per edge, at the price of a vectorized decode pass charged through
``CpuProfile.varint_decode_seconds``.

Run cache-starved (8 KB per node) so the byte savings are visible at the
device rather than absorbed by the block cache.  BFS answers are identical
in both modes — the harness asserts every query's distance against ground
truth, and this file additionally asserts the two sweeps agree bucket for
bucket.
"""

import dataclasses

from conftest import run_once

from repro import Features
from repro.experiments import PUBMED_S, Deployment, run_search_experiment
from repro.experiments.harness import build_and_ingest
from repro.experiments.report import format_series_table

#: Small enough that PubMed-S working sets spill out of the block cache on
#: 16 nodes, so device traffic exists for the encoding to shrink.
CACHE_BYTES = 8 << 10

MODES = (("raw", False), ("compressed", True))


def _device_stats(mssg):
    """Total device traffic (both directions) across all backend stores."""
    moved = reads = 0
    for db in mssg.dbs:
        if hasattr(db, "storage"):  # grDB
            s = db.storage.total_device_stats()
            moved += s["bytes_read"] + s["bytes_written"]
            reads += s["reads"]
        elif hasattr(db, "device"):  # StreamDB
            moved += db.device.stats.bytes_read + db.device.stats.bytes_written
            reads += db.device.stats.reads
    return {"bytes_moved": moved, "reads": reads}


def run_compression_sweep(backend: str, scale: float, num_queries: int = 6):
    series: dict[str, dict[int, float]] = {}
    aux: dict[str, dict[str, float]] = {}
    for label, compress in MODES:
        dep = Deployment(
            backend=backend,
            num_backends=16,
            cache_bytes=CACHE_BYTES,
            features=dataclasses.replace(Features.paper(), compress_adjacency=compress),
        )
        mssg, _, ingest_seconds = build_and_ingest(PUBMED_S, dep, scale)
        try:
            ingest_stats = _device_stats(mssg)
            res = run_search_experiment(
                PUBMED_S, dep, scale=scale, num_queries=num_queries, mssg=mssg
            )
            query_stats = _device_stats(mssg)
            series[label] = dict(res.seconds_by_distance)
            aux[label] = {
                "ingest_seconds": ingest_seconds,
                "query_seconds": res.total_seconds,
                "ingest_bytes_moved": ingest_stats["bytes_moved"],
                "query_bytes_moved": (
                    query_stats["bytes_moved"] - ingest_stats["bytes_moved"]
                ),
                "query_reads": query_stats["reads"] - ingest_stats["reads"],
            }
        finally:
            mssg.close()
    return series, aux


def _render(backend: str, series, aux) -> str:
    text = format_series_table(
        f"Ablation: compressed adjacency ({backend}, PubMed-S, 16 back-ends, "
        "8 KB cache)",
        "path length", series,
    )
    lines = [text, ""]
    for label, a in aux.items():
        lines.append(
            f"  {label:11s} ingest={a['ingest_seconds']:.5f}s "
            f"query={a['query_seconds']:.5f}s "
            f"ingest_bytes={a['ingest_bytes_moved']:.0f} "
            f"query_bytes={a['query_bytes_moved']:.0f} "
            f"query_reads={a['query_reads']:.0f}"
        )
    raw, comp = aux["raw"], aux["compressed"]
    for phase in ("ingest", "query"):
        ratio = comp[f"{phase}_bytes_moved"] / max(raw[f"{phase}_bytes_moved"], 1)
        lines.append(f"  {phase} bytes-moved ratio (compressed/raw): {ratio:.3f}")
    return "\n".join(lines)


def _check(series, aux):
    # Same workload, same queries: the distance buckets must agree exactly
    # (each mode's distances were already asserted against ground truth).
    assert set(series["raw"]) == set(series["compressed"])
    # The encoding must actually shrink device traffic in both phases.
    assert aux["compressed"]["ingest_bytes_moved"] < aux["raw"]["ingest_bytes_moved"]
    assert aux["compressed"]["query_bytes_moved"] < aux["raw"]["query_bytes_moved"]


def test_ablation_compression_grdb(benchmark, bench_scale, save_result):
    series, aux = run_once(
        benchmark, lambda: run_compression_sweep("grDB", bench_scale)
    )
    save_result("ablation_compression_grdb", _render("grDB", series, aux))
    _check(series, aux)
    # Denser sub-blocks mean shorter chains, hence fewer query-time reads.
    assert aux["compressed"]["query_reads"] <= aux["raw"]["query_reads"]


def test_ablation_compression_streamdb(benchmark, bench_scale, save_result):
    series, aux = run_once(
        benchmark, lambda: run_compression_sweep("StreamDB", bench_scale)
    )
    save_result("ablation_compression_streamdb", _render("StreamDB", series, aux))
    _check(series, aux)
