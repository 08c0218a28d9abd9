#!/usr/bin/env python
"""Wall time of one Array BFS as back-ends are added (ROADMAP's recipe).

``pubmed_like(4000, seed=1)``, default ``MSSGConfig``, Array, the 12 pairs
of ``sample_queries_by_distance(graph, 12)`` (the last 3 at 64 back-ends),
one untimed warm-up query per deployment.  Prints, per size: back-ends,
scheduler events per query, wall ms per query, wall µs per event, and the
virtual ms of the last query — the modelled time, which no wall-only change
may move.  Not gated and not part of ``twoclock``: it is the reference the
``array-p16`` workload of ROADMAP direction 1(d) will be checked against,
and is deleted when that lands.

    python benchmarks/rank_scaling.py [--backends 4 16 32 64] [--src DIR]

``--src`` points at another checkout's ``src/`` (e.g. the parent commit's),
so both sides of a comparison run this same file in one session.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def measure(backends: int, edges, pairs) -> tuple[float, float, float]:
    """(events per query, wall seconds per query, virtual seconds of the last)."""
    import repro.simcluster.cluster as cluster
    from repro import MSSG, MSSGConfig

    events = [0]

    class CountingScheduler(cluster.Scheduler):
        def run(self):
            try:
                return super().run()
            finally:
                events[0] += self._total_steps

    original, cluster.Scheduler = cluster.Scheduler, CountingScheduler
    try:
        with MSSG(MSSGConfig(backend="Array", num_backends=backends)) as mssg:
            mssg.ingest(edges)
            mssg.query_bfs(*pairs[0][:2])
            events[0] = 0
            start = time.perf_counter()
            for source, dest, distance in pairs:
                report = mssg.query_bfs(source, dest)
                if report.result != distance:
                    raise SystemExit(
                        f"{backends} back-ends: d({source}, {dest}) = {report.result}, not {distance}"
                    )
            wall = time.perf_counter() - start
    finally:
        cluster.Scheduler = original
    return events[0] / len(pairs), wall / len(pairs), report.seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--backends", type=int, nargs="+", default=[4, 16, 32, 64])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    from repro.bfs import sample_queries_by_distance
    from repro.graphgen import CSRGraph, pubmed_like

    edges = pubmed_like(4000, seed=1)
    pairs = sample_queries_by_distance(CSRGraph.from_edges(edges, num_vertices=4000), 12)
    print(f"{'back-ends':>9} {'queries':>7} {'events/query':>12} {'wall ms/query':>13} "
          f"{'wall us/event':>13} {'virtual ms':>10}")
    for backends in args.backends:
        chosen = pairs[-3:] if backends >= 64 else pairs
        per_query, wall, virtual = measure(backends, edges, chosen)
        print(f"{backends:>9} {len(chosen):>7} {per_query:>12.0f} {wall * 1e3:>13.2f} "
              f"{wall / per_query * 1e6:>13.2f} {virtual * 1e3:>10.3f}")


if __name__ == "__main__":
    main()
