"""In-memory oracle: numpy references and the per-answer checks.

An operation *fails* if it raises, mismatches the reference, or is flagged
``partial`` / ``deadline_exceeded``.  Each check returns ``None`` when the
answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import numpy as np

from repro.bfs import bfs_distance, bfs_levels
from repro.graphgen import CSRGraph

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-9
PAGERANK_TOP_K = 20
PAGERANK_L1_TOLERANCE = 1e-6


def pagerank_reference(graph: CSRGraph, max_iters: int) -> np.ndarray:
    """Power iteration with the semantics of ``repro``'s PageRank program.

    Only vertices with stored adjacency are present; ranks start uniform
    over them and every present vertex scatters ``rank / degree`` along
    each stored (directed) entry.
    """
    degree = graph.degrees().astype(np.float64)
    present = degree > 0
    n_eff = int(present.sum())
    ranks = np.where(present, 1.0 / max(n_eff, 1), 0.0)
    safe_degree = np.where(present, degree, 1.0)
    sources = np.repeat(np.arange(graph.num_vertices), graph.degrees())
    for _ in range(max_iters):
        share = ranks / safe_degree
        combined = np.bincount(
            graph.adj, weights=share[sources], minlength=graph.num_vertices
        )
        new = np.where(
            present, (1.0 - PAGERANK_DAMPING) / n_eff + PAGERANK_DAMPING * combined, 0.0
        )
        delta = float(np.abs(new - ranks).sum())
        ranks = new
        if delta < PAGERANK_TOL:
            break
    return ranks


def component_sizes(graph: CSRGraph) -> list[int]:
    """Sizes of the connected components over vertices with adjacency."""
    unlabelled = graph.degrees() > 0
    sizes = []
    while unlabelled.any():
        reached = bfs_levels(graph, int(np.argmax(unlabelled))) >= 0
        sizes.append(int(reached.sum()))
        unlabelled &= ~reached
    return sorted(sizes, reverse=True)


def _flags(report) -> str | None:
    if report.partial:
        return "flagged partial"
    if report.deadline_exceeded:
        return "flagged deadline_exceeded"
    return None


def check_bfs(report, expected: int) -> str | None:
    """``expected`` is the true hop distance (-1 = unreachable)."""
    want = None if expected < 0 else expected
    if report.result != want:
        return f"distance {report.result}, oracle says {want}"
    return _flags(report)


def check_bfs_on(report, graph: CSRGraph, source: int, dest: int) -> str | None:
    return check_bfs(report, bfs_distance(graph, source, dest))


def check_pagerank(report, ref: np.ndarray) -> str | None:
    got = report.result
    ranks = np.zeros(len(ref))
    for v, r in got["ranks"].items():
        ranks[v] = r
    l1 = float(np.abs(ranks - ref).sum())
    if l1 > PAGERANK_L1_TOLERANCE:
        return f"PageRank L1 distance to the numpy reference is {l1:.3g}"
    want_top = np.argsort(-ref, kind="stable")[:PAGERANK_TOP_K].tolist()
    got_top = [v for v, _ in got["top"]]
    if got_top != want_top:
        return f"PageRank top-{PAGERANK_TOP_K} ids {got_top}, reference {want_top}"
    return _flags(report)


def check_components(report, ref_sizes: list[int]) -> str | None:
    if report.result["sizes"] != ref_sizes:
        return (
            f"{report.result['num_components']} components sized "
            f"{report.result['sizes'][:5]}..., reference {ref_sizes[:5]}..."
        )
    return _flags(report)


def check_ingest(report, edges_before: int, edges_added: int) -> str | None:
    """``report`` may be the façade's accumulated one (streaming)."""
    if report.edges_ingested != edges_before + edges_added:
        return (
            f"{report.edges_ingested} edges ingested, "
            f"{edges_before + edges_added} were passed"
        )
    if report.entries_stored != 2 * report.edges_ingested:
        return f"{report.entries_stored} entries stored for {report.edges_ingested} edges"
    if report.degraded or report.lost_entries:
        return "ingest degraded"
    return None
