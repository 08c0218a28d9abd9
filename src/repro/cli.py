"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   write a scale-free workload to an edge file (ascii/binary)
``stats``      Table 5.1-style statistics for an edge file
``search``     ingest an edge file into a simulated deployment and run
               relationship queries
``experiment`` regenerate one of the paper's tables/figures by id
``list``       list available experiments and workloads
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .features import Features
from .framework import MSSG, MSSGConfig
from .simcluster import DiskFault, FaultPlan
from .graphgen import (
    graph_stats,
    preferential_attachment,
    pubmed_like,
    read_ascii_edges,
    read_binary_edges,
    rmat_edges,
    write_ascii_edges,
    write_binary_edges,
)

__all__ = ["main"]

_EXPERIMENTS = {
    "table5.1": experiments.table_5_1,
    "fig5.1": experiments.fig_5_1,
    "fig5.2": experiments.fig_5_2,
    "fig5.3": experiments.fig_5_3,
    "fig5.4": experiments.fig_5_4,
    "fig5.5": experiments.fig_5_5,
    "fig5.6": experiments.fig_5_6,
    "fig5.7": experiments.fig_5_7,
    "fig5.8": experiments.fig_5_8,
    "fig5.9": experiments.fig_5_9,
}

_GENERATORS = ("pubmed", "ba", "rmat")


def _read_edges(path: str) -> np.ndarray:
    if path.endswith(".bin"):
        with open(path, "rb") as f:
            return read_binary_edges(f)
    with open(path) as f:
        return read_ascii_edges(f)


def _cmd_generate(args) -> int:
    if args.generator == "pubmed":
        edges = pubmed_like(args.vertices, avg_degree=args.avg_degree, seed=args.seed)
    elif args.generator == "ba":
        edges = preferential_attachment(
            args.vertices, max(1, int(args.avg_degree // 2)), seed=args.seed
        )
    else:
        scale = max(2, int(np.ceil(np.log2(args.vertices))))
        edges = rmat_edges(
            scale, int(args.avg_degree * args.vertices // 2), seed=args.seed
        )
    if args.output.endswith(".bin"):
        with open(args.output, "wb") as f:
            write_binary_edges(f, edges)
    else:
        with open(args.output, "w") as f:
            write_ascii_edges(f, edges)
    print(graph_stats(edges, name=args.generator).row())
    print(f"wrote {len(edges):,} edges to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    edges = _read_edges(args.edges)
    s = graph_stats(edges, name=args.edges)
    print(s.header())
    print(s.row())
    return 0


def _search_concurrent(mssg, args) -> None:
    """Run all --query pairs through the concurrent scheduler in one drain."""
    pairs = [tuple(int(x) for x in pair.split(":")) for pair in args.query]
    report = mssg.query_many(
        pairs, deadline=args.deadline, max_inflight=args.inflight
    )
    for (s, d), answer in zip(pairs, report.queries):
        hops = answer.result if answer.result is not None else "unreachable"
        notes = ""
        if answer.deadline_exceeded:
            notes += "   ! DEADLINE exceeded (partial lower bound)"
        elif answer.partial:
            notes += "   ! PARTIAL (lower bound)"
        if answer.corrupt_backends:
            notes += (
                f"   ! corruption detected on back-end(s) "
                f"{list(answer.corrupt_backends)}"
            )
        print(
            f"distance({s} -> {d}) = {hops}   "
            f"[{answer.seconds:.4f} s latency, "
            f"{answer.queue_seconds:.4f} s queued, "
            f"{answer.edges_scanned:,} edges]{notes}"
        )
    print(
        f"drained {len(report.queries)} queries in {report.seconds:.4f} virtual s "
        f"({report.edges_per_second:,.0f} edges/s aggregate): "
        f"{report.rounds} rounds, "
        f"{report.shared_passes} shared scan passes served "
        f"{report.shared_served} subscribers"
        + (f", {report.repairs} frames read-repaired" if report.repairs else "")
    )


def _parse_analysis(spec: str):
    """``name[:key=val,...]`` -> (name, params); values coerced to numbers."""
    name, _, tail = spec.partition(":")
    params = {}
    for kv in filter(None, tail.split(",")):
        key, _, val = kv.partition("=")
        for cast in (int, float):
            try:
                val = cast(val)
                break
            except ValueError:
                continue
        params[key.replace("-", "_")] = val
    return name, params


def _run_analyses(mssg, args) -> None:
    """Run each --analysis request and print a one-line summary."""
    for spec in args.analysis:
        name, params = _parse_analysis(spec)
        report = mssg.query(name, **params)
        notes = ""
        if report.partial:
            notes = "   ! PARTIAL (lower bound)"
        if report.failovers or report.device_failures:
            notes += (
                f"   ! device failures: {report.device_failures}, "
                f"failovers: {report.failovers}"
            )
        if name == "pagerank":
            top = ", ".join(f"{v}={r:.4g}" for v, r in report.result["top"][:5])
            body = (
                f"{report.result['num_vertices']:,} vertices, "
                f"{report.result['iterations']} iterations "
                f"(delta {report.result['delta']:.2e}); top: {top}"
            )
        elif name == "components":
            sizes = report.result["sizes"]
            body = (
                f"{report.result['num_components']} components, "
                f"largest {sizes[0]:,}" if sizes else "0 components"
            )
        else:
            body = f"{report.result}"
        print(
            f"{name}: {body}   "
            f"[{report.seconds:.4f} s, {report.edges_scanned:,} edges]{notes}"
        )


def _cmd_search(args) -> int:
    edges = _read_edges(args.edges)
    kill = args.kill_backend
    if kill is not None and not 0 <= kill < args.backends:
        print(f"--kill-backend must name a back-end in [0, {args.backends})")
        return 2
    if args.kill_during_ingest and kill is None:
        print("--kill-during-ingest needs --kill-backend")
        return 2
    corrupt = args.corrupt_backend
    if corrupt is not None and not 0 <= corrupt < args.backends:
        print(f"--corrupt-backend must name a back-end in [0, {args.backends})")
        return 2
    nbatches = args.stream_batches
    if nbatches is not None and nbatches < 1:
        print("--stream-batches must be >= 1")
        return 2
    if args.compact and nbatches is None:
        print("--compact needs --stream-batches (nothing to fold otherwise)")
        return 2
    config = MSSGConfig(
        num_backends=args.backends,
        num_frontends=args.frontends,
        backend=args.backend,
        declustering=args.declustering,
        replication=args.replication,
        features=Features(
            direction_opt=not args.no_direction_opt,
            compress_adjacency=not args.no_compress_adjacency,
            streaming=nbatches is not None,
        ),
        # An ingest-time kill must be armed before ingestion runs (virtual
        # clocks restart at 0 for every cluster run).
        fault_plan=(
            FaultPlan.kill_node(args.frontends + kill, at_time=args.kill_time)
            if args.kill_during_ingest
            else None
        ),
    )
    with MSSG(config) as mssg:
        if nbatches is not None:
            for batch in np.array_split(edges, nbatches):
                report = mssg.ingest_stream(batch)
            print(
                f"streamed {report.edges_ingested:,} edges in "
                f"{report.batches} batches, {report.seconds:.4f} virtual s "
                f"({report.edges_per_second:,.0f} edges/s"
                + (
                    f", {report.replication} replicas)"
                    if report.replication > 1
                    else ")"
                )
            )
        else:
            report = mssg.ingest(edges)
            print(
                f"ingested {report.edges_ingested:,} edges in {report.seconds:.4f} "
                f"virtual s ({report.edges_per_second:,.0f} edges/s"
                + (f", {report.replication} replicas)" if report.replication > 1 else ")")
            )
        if report.degraded:
            print(
                f"   ! DEGRADED: back-end(s) {list(report.failed_backends)} died "
                f"mid-ingest, {report.lost_entries:,} entries lost"
            )
        if args.compact:
            cr = mssg.compact()
            print(
                f"compacted {cr.batches_folded} delta-log batch folds "
                f"({cr.entries_folded:,} entries) into base stores in "
                f"{cr.seconds:.4f} s"
                + (
                    f"   ! back-end(s) {list(cr.failed_backends)} died mid-fold"
                    if cr.failed_backends
                    else ""
                )
            )
        plan = FaultPlan([])
        if kill is not None and not args.kill_during_ingest:
            # Installed after ingestion so the fault's virtual time is
            # measured within each query run (clocks restart per run).
            plan.add(DiskFault(node=args.frontends + kill, at_time=args.kill_time))
            print(
                f"fault injected: back-end {kill} dies at "
                f"t={args.kill_time:g}s of each query"
            )
        if corrupt is not None:
            plan.add(
                DiskFault(
                    node=args.frontends + corrupt,
                    kind="corrupt",
                    at_time=args.corrupt_time,
                )
            )
            print(
                f"fault injected: back-end {corrupt}'s stored bytes rot at "
                f"t={args.corrupt_time:g}s of the next device operation window"
            )
        if len(plan):
            mssg.set_fault_plan(plan)
        if args.rebalance:
            rb = mssg.rebalance()
            notes = (
                f"; unrecoverable partitions: {list(rb.unrecoverable_partitions)}"
                if rb.unrecoverable_partitions
                else ""
            )
            print(
                f"rebalanced: {rb.copies_restored} partition copies "
                f"({rb.entries_copied:,} entries) re-replicated in "
                f"{rb.seconds:.4f} s; effective replication {rb.replication}{notes}"
            )
        if args.analysis:
            _run_analyses(mssg, args)
        if args.inflight is not None or args.deadline is not None:
            _search_concurrent(mssg, args)
        else:
            for pair in args.query:
                s, d = (int(x) for x in pair.split(":"))
                answer = mssg.query_bfs(s, d, pipelined=args.pipelined)
                hops = answer.result if answer.result is not None else "unreachable"
                notes = ""
                if answer.failovers or answer.device_failures or answer.partial:
                    degraded = " PARTIAL (lower bound)" if answer.partial else ""
                    notes = (
                        f"   !{degraded} device failures: {answer.device_failures}, "
                        f"failovers: {answer.failovers}, "
                        f"dropped vertices: {answer.dropped_vertices}"
                    )
                if answer.corrupt_backends:
                    notes += (
                        f"   ! corruption detected on back-end(s) "
                        f"{list(answer.corrupt_backends)}; "
                        f"{answer.repairs} frames read-repaired"
                    )
                print(
                    f"distance({s} -> {d}) = {hops}   "
                    f"[{answer.seconds:.4f} s, {answer.edges_scanned:,} edges]{notes}"
                )
                bottom_up = sum(d == "bottom-up" for d in answer.directions)
                if bottom_up:
                    print(
                        f"   hybrid: {bottom_up}/{len(answer.directions)} levels "
                        f"bottom-up ({'-'.join('bu' if d == 'bottom-up' else 'td' for d in answer.directions)}), "
                        f"{answer.edges_examined:,} edges examined, "
                        f"{answer.edges_skipped:,} skipped by early exit"
                    )
        if args.scrub:
            sr = mssg.scrub()
            print(
                f"scrub: {sr.frames_scanned:,} frames verified in "
                f"{sr.seconds:.4f} s — {sr.corrupt_frames} corrupt, "
                f"{sr.repaired_frames} repaired, "
                f"{sr.unrecoverable_frames} unrecoverable"
                + (
                    f" (back-ends {list(sr.corrupt_backends)})"
                    if sr.corrupt_backends
                    else ""
                )
            )
    return 0


def _cmd_experiment(args) -> int:
    fn = _EXPERIMENTS.get(args.id)
    if fn is None:
        print(f"unknown experiment {args.id!r}; try: {', '.join(sorted(_EXPERIMENTS))}")
        return 2
    _, text = fn(scale=args.scale)
    print(text)
    return 0


def _cmd_list(args) -> int:
    print("experiments:", ", ".join(sorted(_EXPERIMENTS)))
    print("workloads:  ", ", ".join(sorted(experiments.WORKLOADS)))
    print("generators: ", ", ".join(_GENERATORS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MSSG reproduction: massive-scale semantic graph framework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a scale-free edge file")
    g.add_argument("output", help="output path (.bin for binary, else ascii)")
    g.add_argument("--generator", choices=_GENERATORS, default="pubmed")
    g.add_argument("--vertices", type=int, default=4000)
    g.add_argument("--avg-degree", type=float, default=14.84)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("stats", help="Table 5.1-style stats for an edge file")
    s.add_argument("edges")
    s.set_defaults(func=_cmd_stats)

    q = sub.add_parser("search", help="ingest an edge file and run BFS queries")
    q.add_argument("edges")
    q.add_argument("--query", action="append", default=[], metavar="SRC:DST")
    q.add_argument(
        "--analysis",
        action="append",
        default=[],
        metavar="NAME[:K=V,...]",
        help="run a registered analytics query after ingest, e.g. "
        "'pagerank:max-iters=20', 'components', 'neighborhood:source=3,hops=2'; "
        "repeatable",
    )
    q.add_argument("--backend", default="grDB")
    q.add_argument("--backends", type=int, default=4)
    q.add_argument("--frontends", type=int, default=1)
    q.add_argument("--declustering", default="vertex-rr")
    q.add_argument("--pipelined", action="store_true")
    q.add_argument(
        "--inflight",
        type=int,
        default=None,
        metavar="N",
        help="serve all --query pairs concurrently through the multi-query "
        "scheduler, admitting at most N at a time (shared scans on)",
    )
    q.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="with --inflight: per-query deadline in virtual seconds; "
        "expired queries return partial lower bounds instead of stalling "
        "the batch (implies concurrent serving)",
    )
    q.add_argument(
        "--replication",
        type=int,
        default=1,
        help="copies of each adjacency partition (rotational declustering)",
    )
    q.add_argument(
        "--kill-backend",
        type=int,
        default=None,
        metavar="Q",
        help="inject a fault: back-end Q's disks die during each query",
    )
    q.add_argument(
        "--kill-time",
        type=float,
        default=0.0,
        help="virtual seconds into each query at which the fault fires",
    )
    q.add_argument(
        "--kill-during-ingest",
        action="store_true",
        help="fire the --kill-backend fault during ingestion instead of "
        "during each query (exercises ingestion-time failover)",
    )
    q.add_argument(
        "--no-direction-opt",
        action="store_true",
        help="disable the direction-optimizing (push/pull hybrid) BFS and "
        "search pure top-down like the paper's prototype",
    )
    q.add_argument(
        "--no-compress-adjacency",
        action="store_true",
        help="store raw 8-byte adjacency slots / 16-byte log entries "
        "instead of delta+varint compressed sub-blocks and records (the "
        "paper prototype's format)",
    )
    q.add_argument(
        "--stream-batches",
        type=int,
        default=None,
        metavar="N",
        help="ingest incrementally: split the edge file into N batches and "
        "stream each through the crash-safe delta logs (streaming mode); "
        "queries run against the published snapshot",
    )
    q.add_argument(
        "--compact",
        action="store_true",
        help="with --stream-batches: fold the streamed deltas into the base "
        "stores (two-phase, crash-safe) before querying",
    )
    q.add_argument(
        "--rebalance",
        action="store_true",
        help="after ingestion (and any injected death), re-replicate dead "
        "back-ends' partitions onto survivors before querying",
    )
    q.add_argument(
        "--corrupt-backend",
        type=int,
        default=None,
        metavar="Q",
        help="inject bit-rot: back-end Q's stored bytes flip during each "
        "query; checksums detect it and queries read-repair from replicas",
    )
    q.add_argument(
        "--corrupt-time",
        type=float,
        default=0.0,
        help="virtual seconds into each query at which the bit-rot fires",
    )
    q.add_argument(
        "--scrub",
        action="store_true",
        help="after the queries, verify every stored frame cluster-wide and "
        "repair any remaining corruption from replicas",
    )
    q.set_defaults(func=_cmd_search)

    e = sub.add_parser("experiment", help="regenerate a paper table/figure")
    e.add_argument("id", help="e.g. table5.1, fig5.4")
    e.add_argument("--scale", type=float, default=1.0)
    e.set_defaults(func=_cmd_experiment)

    ls = sub.add_parser("list", help="list experiments and workloads")
    ls.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
