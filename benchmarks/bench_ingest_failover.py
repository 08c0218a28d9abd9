"""Ingestion failover — healthy-path cost anchor and degraded-mode sweep.

The ingestion-time failover machinery (death board polling, routed
assignment, shard copy records) sits on the hot ingestion path, so this
benchmark pins the healthy path down hard: on a fixed reference workload
the *virtual* ingestion seconds must be bit-identical to the values
recorded before the machinery existed — the fault-tolerant path must cost
literally nothing when nothing fails.  Virtual time is deterministic, so
the assertion is exact equality, not a tolerance band.

The degraded sweep then kills one back-end mid-stream at each replication
factor and reports the outcome: with replication the run completes with
zero lost entries; without it the dead owner's shards are counted lost.
The degraded runs use a small block cache so stores actually reach the
device mid-stream (with the default cache the whole workload is absorbed
in memory and the device is only touched at finalize, after which a kill
has nothing in flight to lose).
"""

from conftest import run_once

from repro import MSSG, Features, MSSGConfig
from repro.graphgen import pubmed_like
from repro.simcluster import FaultPlan

#: Reference workload for the healthy anchor (fixed — independent of
#: REPRO_BENCH_SCALE, the anchor values only hold for this exact stream).
ANCHOR_VERTICES = 2000
ANCHOR_SEED = 11

#: Healthy-path virtual ingestion seconds and stored entries, recorded on
#: the pre-failover ingestion service (4 back-ends, 2 front-ends).  Any
#: drift means the failover machinery started charging the healthy path.
ANCHOR = {
    1: (0.33580132931717255, 29426),
    2: (0.5651691816242412, 58852),
}


def _deploy(replication: int, fault_plan=None, cache_blocks=None) -> MSSG:
    kwargs = {} if cache_blocks is None else {"cache_blocks": cache_blocks}
    return MSSG(
        MSSGConfig(
            num_backends=4,
            num_frontends=2,
            replication=replication,
            fault_plan=fault_plan,
            # The storage model the anchor was recorded on: checksums and
            # compressed adjacency arrived later as defaults, and changes to
            # how they store a window are not what this anchor guards.
            features=Features(checksums=False, compress_adjacency=False),
            **kwargs,
        )
    )


def run_failover_sweep():
    edges = pubmed_like(ANCHOR_VERTICES, seed=ANCHOR_SEED)
    rows = []
    for replication, (want_seconds, want_entries) in ANCHOR.items():
        with _deploy(replication) as healthy:
            report = healthy.ingest(edges)
        assert report.seconds == want_seconds, (
            f"healthy ingest cost drifted at replication={replication}: "
            f"{report.seconds!r} != anchor {want_seconds!r}"
        )
        assert report.entries_stored == want_entries
        assert not report.degraded and report.lost_entries == 0

        plan = FaultPlan.kill_node(2, at_time=report.seconds * 0.25)
        with _deploy(replication, fault_plan=plan, cache_blocks=4) as faulted:
            degraded = faulted.ingest(edges)
        assert degraded.degraded and 0 in degraded.failed_backends
        if replication > 1:
            assert degraded.lost_entries == 0
        else:
            assert degraded.lost_entries > 0
        rows.append(
            {
                "replication": replication,
                "healthy_seconds": report.seconds,
                "degraded_seconds": degraded.seconds,
                "lost_entries": degraded.lost_entries,
            }
        )
    return rows


def test_ingest_failover(benchmark, save_result):
    rows = run_once(benchmark, run_failover_sweep)
    lines = ["replication  healthy[s]  degraded[s]  lost entries"]
    for r in rows:
        lines.append(
            f"{r['replication']:>11} {r['healthy_seconds']:>11.4f} "
            f"{r['degraded_seconds']:>12.4f} {r['lost_entries']:>13,}"
        )
    save_result("ingest_failover", "\n".join(lines))
