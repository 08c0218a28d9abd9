"""Ablation — end-to-end block integrity (raw frames vs CRC32 framing).

Not a paper figure: the thesis prototype stored raw frames and trusted
the disks, so the chapter-5 reproductions keep ``checksums=False``.  This
ablation prices the integrity layer on the Fig 5.4 grDB workload
(PubMed-S searches at 16 back-ends, bucketed by path length): every
device framed into 4 KiB payloads with CRC32 trailers, verified on every
read, plus grDB's crash-consistent WAL flush.

Expected shape: results are identical — the frame map is monotone, so a
logically sequential access stays physically sequential and only the
~0.1 % trailer overhead plus the WAL's ingest-time write amplification
shows up.  Query-side cost must stay within low single digits; ingestion
pays more (the WAL journals every flushed span twice) but stays within a
small constant factor.
"""

import dataclasses

from conftest import run_once

from repro import Features
from repro.experiments import PUBMED_S, Deployment
from repro.experiments.harness import build_and_ingest, queries_for
from repro.experiments.report import format_series_table

MODES = (("raw", False), ("checksummed", True))


def run_checksum_sweep(scale: float, num_queries: int = 8):
    queries = queries_for(PUBMED_S, scale, num_queries, seed=0, min_distance=2)
    series: dict[str, dict[int, float]] = {}
    aux: dict[str, dict[str, float]] = {}
    answers: dict[str, list[int]] = {}
    for label, on in MODES:
        dep = Deployment(
            backend="grDB",
            num_backends=16,
            features=dataclasses.replace(Features.paper(), checksums=on),
        )
        mssg, _, ingest_seconds = build_and_ingest(PUBMED_S, dep, scale)
        try:
            buckets: dict[int, list[float]] = {}
            a = {"seconds": 0.0, "ingest_seconds": ingest_seconds}
            answers[label] = []
            for s, d, dist in queries:
                report = mssg.query_bfs(s, d)
                assert report.result == dist, (
                    f"{label}: {s}->{d} returned {report.result}, expected {dist}"
                )
                assert not report.corrupt_backends
                answers[label].append(report.result)
                buckets.setdefault(dist, []).append(report.seconds)
                a["seconds"] += report.seconds
            if on:
                # Every stored frame verifies after a healthy run.
                sr = mssg.scrub(repair=False)
                a["frames_scanned"] = sr.frames_scanned
                assert sr.corrupt_frames == 0
        finally:
            mssg.close()
        series[label] = {
            dist: sum(ts) / len(ts) for dist, ts in sorted(buckets.items())
        }
        aux[label] = a
    # Checksums are an integrity layer, not an algorithm change.
    assert answers["raw"] == answers["checksummed"]
    return series, aux


def _render(series, aux) -> str:
    text = format_series_table(
        "Ablation: CRC32 block integrity (grDB, PubMed-S, 16 back-ends)",
        "path length", series,
    )
    lines = [text, ""]
    for label, a in aux.items():
        extra = (
            f" frames_verified={a['frames_scanned']:.0f}"
            if "frames_scanned" in a
            else ""
        )
        lines.append(
            f"  {label:11s} query_total={a['seconds']:.5f}s "
            f"ingest={a['ingest_seconds']:.5f}s{extra}"
        )
    raw, ck = aux["raw"], aux["checksummed"]
    lines.append(
        f"  overhead: query {ck['seconds'] / raw['seconds'] - 1.0:+.2%}, "
        f"ingest {ck['ingest_seconds'] / raw['ingest_seconds'] - 1.0:+.2%}"
    )
    return "\n".join(lines)


def test_ablation_checksums_grdb(benchmark, bench_scale, save_result):
    series, aux = run_once(benchmark, lambda: run_checksum_sweep(bench_scale))
    save_result("ablation_checksums_grdb", _render(series, aux))

    raw, ck = aux["raw"], aux["checksummed"]
    # The query-side price of verifying every read: low single digits.
    assert ck["seconds"] <= 1.10 * raw["seconds"]
    # Ingestion pays the WAL's journal-then-apply write amplification but
    # stays within a small constant factor of the raw path.
    assert ck["ingest_seconds"] <= 3.0 * raw["ingest_seconds"]
    assert ck["frames_scanned"] > 0
