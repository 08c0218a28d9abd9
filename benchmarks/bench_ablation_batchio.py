"""Ablation — batched fringe I/O (per-vertex vs batched).

Not a paper figure: the paper's prototype expanded the fringe one adjacency
request at a time, and §4.2 leaves offset-sorted fringe reads as future work.
This ablation measures what that future work buys on the two out-of-core
backends with a real batched plan: grDB plans each BFS level as one sorted,
merged sub-block batch (adjacent cold blocks coalesce into single vectored
device reads), BerkeleyDB visits the fringe's keys in sorted order through
the B-tree (dense fringes become one leaf-chain range scan).

Run deliberately cache-starved (8 KB per node instead of the default
64 KB) so the coalescing is visible at the device: the batched plan issues
*fewer, larger* reads than the per-vertex loop.  Adjacency results are
identical in both modes — the harness asserts
every query's BFS distance.
"""

import dataclasses

from conftest import run_once

from repro import Features
from repro.experiments import PUBMED_S, Deployment, run_search_experiment
from repro.experiments.harness import build_and_ingest
from repro.experiments.report import format_series_table

#: Small enough that PubMed-S level-0 working sets spill out of the block
#: cache on 16 nodes, so query-time device reads exist to be coalesced.
CACHE_BYTES = 8 << 10

MODES = (("per-vertex", False), ("batched", True))


def _device_stats(mssg):
    reads = bytes_read = 0
    for db in mssg.dbs:
        if hasattr(db, "storage"):  # grDB
            s = db.storage.total_device_stats()
            reads += s["reads"]
            bytes_read += s["bytes_read"]
        elif hasattr(db, "store"):  # BerkeleyDB
            reads += db.store.device.stats.reads
            bytes_read += db.store.device.stats.bytes_read
    return {"reads": reads, "bytes_read": bytes_read}


def run_batchio_sweep(backend: str, scale: float, num_queries: int = 6):
    series: dict[str, dict[int, float]] = {}
    aux: dict[str, dict[str, float]] = {}
    for label, batch_io in MODES:
        dep = Deployment(
            backend=backend,
            num_backends=16,
            cache_bytes=CACHE_BYTES,
            features=dataclasses.replace(Features.paper(), batch_io=batch_io),
        )
        mssg, _, _ = build_and_ingest(PUBMED_S, dep, scale)
        try:
            before = _device_stats(mssg)
            res = run_search_experiment(
                PUBMED_S, dep, scale=scale, num_queries=num_queries, mssg=mssg
            )
            after = _device_stats(mssg)
            reads = after["reads"] - before["reads"]
            series[label] = dict(res.seconds_by_distance)
            aux[label] = {
                "seconds": res.total_seconds,
                "device_reads": reads,
                "bytes_per_read": (
                    (after["bytes_read"] - before["bytes_read"]) / reads if reads else 0.0
                ),
            }
        finally:
            mssg.close()
    return series, aux


def _render(backend: str, series, aux) -> str:
    text = format_series_table(
        f"Ablation: batched fringe I/O ({backend}, PubMed-S, 16 back-ends, 8 KB cache)",
        "path length", series,
    )
    lines = [text, ""]
    for label, a in aux.items():
        lines.append(
            f"  {label:18s} total={a['seconds']:.5f}s device_reads={a['device_reads']:.0f} "
            f"bytes/read={a['bytes_per_read']:.0f}"
        )
    return "\n".join(lines)


def test_ablation_batchio_grdb(benchmark, bench_scale, save_result):
    series, aux = run_once(benchmark, lambda: run_batchio_sweep("grDB", bench_scale))
    save_result("ablation_batchio_grdb", _render("grDB", series, aux))

    # Batching makes the whole query stream faster, not just one bucket.
    assert aux["batched"]["seconds"] < aux["per-vertex"]["seconds"]
    # Coalescing is observable at the device: the sorted batch plan issues
    # fewer reads, each covering at least as many bytes.
    assert aux["batched"]["device_reads"] < aux["per-vertex"]["device_reads"]
    assert aux["batched"]["bytes_per_read"] >= aux["per-vertex"]["bytes_per_read"]


def test_ablation_batchio_bdb(benchmark, bench_scale, save_result):
    series, aux = run_once(
        benchmark, lambda: run_batchio_sweep("BerkeleyDB", bench_scale)
    )
    save_result("ablation_batchio_bdb", _render("BerkeleyDB", series, aux))

    # Sorted-key batching amortizes B-tree descents across the fringe.
    assert aux["batched"]["seconds"] < aux["per-vertex"]["seconds"]
