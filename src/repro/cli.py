"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   write a scale-free workload to an edge file (ascii/binary)
``stats``      Table 5.1-style statistics for an edge file
``search``     ingest an edge file into a simulated deployment and run
               relationship queries
``experiment`` regenerate the paper's tables/figures by id
``list``       list available experiments and workloads
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .framework import MSSG, MSSGConfig
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
            f"[{report.seconds:.4f} s, {report.edges_scanned:,} edges]"
        )


def _cmd_search(args) -> int:
    edges = _read_edges(args.edges)
    config = MSSGConfig(
        num_backends=args.backends,
        num_frontends=args.frontends,
        backend=args.backend,
        declustering=args.declustering,
    )
    with MSSG(config) as mssg:
        report = mssg.ingest(edges)
        print(
            f"ingested {report.edges_ingested:,} edges in {report.seconds:.4f} "
            f"virtual s ({report.edges_per_second:,.0f} edges/s)"
        )
        _run_analyses(mssg, args)
        for pair in args.query:
            s, d = (int(x) for x in pair.split(":"))
            answer = mssg.query_bfs(s, d, pipelined=args.pipelined)
            hops = answer.result if answer.result is not None else "unreachable"
            print(
                f"distance({s} -> {d}) = {hops}   "
                f"[{answer.seconds:.4f} s, {answer.edges_scanned:,} edges]"
            )
            bottom_up = sum(d == "bottom-up" for d in answer.directions)
            if bottom_up:
                print(
                    f"   hybrid: {bottom_up}/{len(answer.directions)} levels "
                    f"bottom-up ({'-'.join('bu' if d == 'bottom-up' else 'td' for d in answer.directions)}), "
                    f"{answer.edges_examined:,} edges examined, "
                    f"{answer.edges_skipped:,} skipped by early exit"
                )
    return 0


def _cmd_experiment(args) -> int:
    unknown = [i for i in args.id if i not in _EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment {', '.join(map(repr, unknown))}; "
            f"try: {', '.join(sorted(_EXPERIMENTS))}"
        )
        return 2
    for i in args.id:
        _, text = _EXPERIMENTS[i](scale=args.scale)
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

    q = sub.add_parser(
        "search", help="ingest an edge file, run each --analysis, then each --query"
    )
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
    q.add_argument(
        "--pipelined", action="store_true", help="the pipelined BFS (Algorithm 2)"
    )
    q.set_defaults(func=_cmd_search)

    e = sub.add_parser("experiment", help="regenerate paper tables/figures")
    e.add_argument(
        "id", nargs="+", help="e.g. table5.1 fig5.4; several run in one process"
    )
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
