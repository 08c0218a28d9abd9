"""Extension analyses for the Query Service.

The paper positions MSSG as "a flexible and efficient framework to allow
the development and analysis of different graph algorithms" (ch. 6); BFS
is just the demonstration plug-in.  This module supplies further analyses
written directly against the GraphDB/communicator contracts:

* **connected components (dict baseline)** — distributed min-label
  propagation with whole Python dicts shipped through allreduce each
  round.  Registered as both ``components-dict`` and (until the
  vertex-program runtime overrides it) ``components``; kept as the
  naive baseline the ``bench_vertexprog`` ablation measures the
  scatter/gather runtime against;
* **PageRank (dict baseline)** — power iteration with dict allreduces,
  registered as ``pagerank-dict``; the other half of the same ablation;
* **typed BFS** — ontology-constrained search (after Eliassi-Rad & Chow,
  the paper's reference [32]): fringe expansion keeps only neighbors whose
  vertex-type metadata is in an allowed set, implemented directly with
  Listing 3.1's ``getAdjacencyListUsingMetadata(..., OP_EQ)`` filter.

All register automatically via :func:`register_extensions`.
"""

from __future__ import annotations

import numpy as np

from ..bfs.oocbfs import BFSConfig
from ..bfs.paths import path_bfs_program
from ..bfs.visited import InMemoryVisited
from ..graphdb.interface import OP_EQ, GraphDB
from ..util.errors import ConfigError, DeviceFailedError
from ..util.longarray import LongArray
from .query import QueryReport, QueryService

__all__ = [
    "register_extensions",
    "components_program",
    "pagerank_dict_program",
    "typed_bfs_program",
]


def _agreed(analysis: str, results: list):
    """All back-end ranks must report the same outcome; returns it.

    Every extension analysis computes its answer from globally-merged
    (allreduced) state, so per-rank results are identical by construction
    — a divergence means a broken collective or a nondeterministic merge,
    which must fail loudly rather than silently trusting rank 0.
    """
    first = results[0]
    for r in results[1:]:
        if r != first:
            raise ConfigError(f"back-ends disagree on {analysis} outcome")
    return first


def _merge_min_labels(a: dict, b: dict) -> dict:
    out = dict(a)
    for v, label in b.items():
        if label < out.get(v, 1 << 62):
            out[v] = label
    return out


def components_program(ctx, db: GraphDB, max_rounds: int = 200):
    """Rank program: min-label propagation until global quiescence.

    Every rank keeps a replicated label table for all vertices it has seen
    (the same memory trade the paper makes for the BFS visited structure)
    and, each round, proposes ``min(label(v), label(u))`` for every locally
    stored edge ``(v, u)`` whose endpoints' labels disagree.  Proposals are
    merged with a min-allreduce; the round's changed vertices form the next
    frontier.  Works for both vertex- and edge-granularity storage because
    a rank only proposes from adjacency it actually holds.

    This is the *naive* formulation — per-vertex adjacency requests and
    whole-dict collectives.  The vertex-program runtime
    (:mod:`repro.services.vertexprog`) replaces it as the registered
    ``components`` analysis; it stays registered as ``components-dict``
    for the ablation benchmark.
    """
    comm = ctx.comm
    mine = db.local_vertices()
    labels: dict[int, int] = {}

    # Discover the vertex universe (sources + their stored neighbors).
    seed: dict[int, int] = {}
    for v in mine:
        v = int(v)
        seed[v] = min(seed.get(v, v), v)
        for u in db.get_adjacency(v):
            u = int(u)
            seed[u] = min(seed.get(u, u), u)
    merged_seed = yield from comm.allreduce(seed, _merge_min_labels)
    # Copy: in-process collectives deliver one shared object to every rank,
    # and this table is mutated rank-locally below.
    labels = dict(merged_seed)
    frontier = np.array(sorted(labels), dtype=np.int64)

    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        proposals: dict[int, int] = {}
        for v in frontier:
            v = int(v)
            lv = labels[v]
            neighbors = db.get_adjacency(v)
            if len(neighbors) == 0:
                continue
            for u in neighbors:
                u = int(u)
                lu = labels[u]
                if lu < lv:
                    lv = lu
                elif lv < lu and lv < proposals.get(u, 1 << 62):
                    proposals[u] = lv
            if lv < labels[v] and lv < proposals.get(v, 1 << 62):
                proposals[v] = lv
        merged = yield from comm.allreduce(proposals, _merge_min_labels)
        changed = [v for v, label in merged.items() if label < labels[v]]
        for v in changed:
            labels[v] = merged[v]
        if not changed:
            break
        frontier = np.array(sorted(changed), dtype=np.int64)

    return labels, rounds


def _merge_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, x in b.items():
        out[k] = out.get(k, 0) + x
    return out


def pagerank_dict_program(
    ctx,
    db: GraphDB,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iters: int = 100,
):
    """Rank program: PageRank by power iteration, dict-allreduce style.

    The naive formulation the vertex-program runtime is measured against:
    one adjacency request per vertex per iteration, contribution tables as
    Python dicts shipped whole through allreduce.  A vertex's degree is
    its globally-summed stored out-degree (partial slices under
    edge-granularity storage add up); a vertex participates iff it has
    stored adjacency.  Converges on the L1 delta like the runtime plug-in.
    Registered as ``pagerank-dict``.
    """
    comm = ctx.comm
    deg_local: dict[int, int] = {}
    for v in db.local_vertices():
        v = int(v)
        deg_local[v] = deg_local.get(v, 0) + len(db.get_adjacency(v))
    degree = yield from comm.allreduce(deg_local, _merge_add)
    degree = {v: d for v, d in degree.items() if d > 0}
    n = len(degree)
    if n == 0:
        return {}, 0, 0.0

    ranks = {v: 1.0 / n for v in degree}
    iters = 0
    delta = float("inf")
    while iters < max_iters:
        iters += 1
        contrib: dict[int, float] = {}
        for v in db.local_vertices():
            v = int(v)
            if v not in ranks:
                continue
            share = ranks[v] / degree[v]
            for u in db.get_adjacency(v):
                u = int(u)
                contrib[u] = contrib.get(u, 0.0) + share
        merged = yield from comm.allreduce(contrib, _merge_add)
        new = {
            v: (1.0 - damping) / n + damping * merged.get(v, 0.0) for v in ranks
        }
        delta = sum(abs(new[v] - ranks[v]) for v in ranks)
        ranks = new
        if delta < tol:
            break
    return ranks, iters, delta


def typed_bfs_program(
    ctx,
    db: GraphDB,
    source: int,
    dest: int,
    allowed_codes,
    max_levels: int = 64,
    replication: int = 1,
):
    """Rank program: BFS that may only traverse allowed vertex types.

    Vertex types must already be loaded as per-vertex metadata (integer
    type codes) on every back-end; expansion then unions one
    ``OP_EQ``-filtered adjacency fetch per allowed code — exactly the
    higher-level operation Listing 3.1 was designed to make cheap.
    Returns ``(level, partial)`` with level -1 when unreachable.

    Expansion is broadcast-style (every rank expands the full fringe
    against its own storage), so a mid-query device death is covered for
    free whenever each partition has another alive holder: the survivors'
    union already contains the dead rank's neighbors.  The dead rank
    keeps posting (empty) shards so collectives stay rank-uniform;
    ``partial`` flags the runs where coverage cannot be guaranteed
    (cumulative deaths reaching the replication factor).
    """
    comm = ctx.comm
    source, dest = int(source), int(dest)
    if source == dest:
        # The trivial relationship: zero hops, decided before any
        # expansion or communication (rank-uniform by construction).
        return 0, False
    visited: set[int] = {source}
    fringe = np.array([source], dtype=np.int64)
    levcnt = 0
    allowed = [int(c) for c in allowed_codes]
    self_dead = False
    dead: set[int] = set()
    partial = False

    while True:
        levcnt += 1
        neighbors = np.empty(0, dtype=np.int64)
        if not self_dead:
            out = LongArray()
            try:
                for v in fringe:
                    for code in allowed:
                        db.get_adjacency_list_using_metadata(int(v), out, code, OP_EQ)
                neighbors = out.to_numpy()
            except DeviceFailedError:
                self_dead = True
                neighbors = np.empty(0, dtype=np.int64)
        found_here = bool(len(neighbors)) and bool(np.any(neighbors == dest))
        new = np.unique(neighbors) if len(neighbors) else neighbors
        new = np.array([u for u in new if int(u) not in visited], dtype=np.int64)
        gathered = yield from comm.allgather((self_dead, new))
        for q, (is_dead, _) in enumerate(gathered):
            if is_dead:
                dead.add(q)
        if len(dead) >= replication:
            # Conservative: this many deaths may have exhausted some
            # partition's holder chain, so the union may be incomplete.
            partial = True
        shards = [np.asarray(g, dtype=np.int64) for _, g in gathered if len(g)]
        incoming = (
            np.unique(np.concatenate(shards)) if shards else np.empty(0, dtype=np.int64)
        )
        fresh = np.array([u for u in incoming if int(u) not in visited], dtype=np.int64)
        visited.update(int(u) for u in fresh)
        fringe = fresh
        found_any, total = yield from comm.allreduce(
            (found_here, len(fresh)), lambda a, b: (a[0] or b[0], a[1] + b[1])
        )
        if found_any:
            return levcnt, partial
        if total == 0 or levcnt >= max_levels:
            return -1, partial


def register_extensions(service: QueryService) -> None:
    """Register the extension analyses on a query service."""

    def _edges_scanned():
        return sum(db.stats.edges_scanned for db in service.dbs)

    def components(max_rounds: int = 200, return_labels: bool = False) -> QueryReport:
        edges_before = _edges_scanned()
        results = service._run_on_backends(
            lambda ctx, q: components_program(ctx, service.dbs[q], max_rounds)
        )
        labels, _ = _agreed("components", results)
        counts: dict[int, int] = {}
        for label in labels.values():
            counts[label] = counts.get(label, 0) + 1
        payload = {
            "num_components": len(counts),
            "sizes": sorted(counts.values(), reverse=True),
        }
        # The full per-vertex table is an unbounded payload at scale
        # (every vertex id in the graph); callers opt in explicitly.
        if return_labels:
            payload["labels"] = labels
        return QueryReport(
            analysis="components",
            seconds=service.cluster.makespan,
            result=payload,
            edges_scanned=_edges_scanned() - edges_before,
            levels=max(r[1] for r in results),
        )

    def pagerank_dict(
        damping: float = 0.85, tol: float = 1e-9, max_iters: int = 100
    ) -> QueryReport:
        edges_before = _edges_scanned()
        results = service._run_on_backends(
            lambda ctx, q: pagerank_dict_program(ctx, service.dbs[q], damping, tol, max_iters)
        )
        ranks, iters, delta = _agreed("pagerank-dict", results)
        order = sorted(ranks, key=lambda v: (-ranks[v], v))
        return QueryReport(
            analysis="pagerank-dict",
            seconds=service.cluster.makespan,
            result={
                "num_vertices": len(ranks),
                "iterations": iters,
                "delta": delta,
                "top": [(int(v), float(ranks[v])) for v in order[:20]],
            },
            edges_scanned=_edges_scanned() - edges_before,
            levels=iters,
        )

    def load_vertex_types(type_codes: dict) -> QueryReport:
        """Replicate the vertex-type metadata table onto every back-end."""

        def program(ctx, q):
            db = service.dbs[q]
            for v, code in type_codes.items():
                db.set_metadata(int(v), int(code))
            yield from ctx.comm.barrier()
            return len(type_codes)

        results = service._run_on_backends(program)
        return QueryReport(
            analysis="load-vertex-types",
            seconds=service.cluster.makespan,
            result=_agreed("load-vertex-types", results),
        )

    def typed_bfs(source, dest, allowed_codes, max_levels: int = 64) -> QueryReport:
        results = service._run_on_backends(
            lambda ctx, q: typed_bfs_program(
                ctx,
                service.dbs[q],
                int(source),
                int(dest),
                allowed_codes,
                max_levels,
                replication=service.replication,
            )
        )
        level, partial = _agreed("typed-bfs", results)
        return QueryReport(
            analysis="typed-bfs",
            seconds=service.cluster.makespan,
            result=None if level < 0 else level,
            partial=partial,
        )

    def path(source, dest, max_levels: int = 64) -> QueryReport:
        """Relationship chain: the actual shortest vertex path, not just
        its length (the "show me the connection" query of the paper's
        homeland-security motivation)."""
        cfg = BFSConfig(
            source=int(source),
            dest=int(dest),
            owner_known=service.declusterer.owner_known,
            max_levels=max_levels,
        )
        owner_of = (
            service.declusterer.owner_of if service.declusterer.owner_known else None
        )

        results = service._run_on_backends(
            lambda ctx, q: path_bfs_program(
                ctx, service.dbs[q], cfg, InMemoryVisited(), owner_of=owner_of
            )
        )
        return QueryReport(
            analysis="path",
            seconds=service.cluster.makespan,
            result=_agreed("path", results),
        )

    service.register("components", components)
    service.register("components-dict", components)
    service.register("pagerank-dict", pagerank_dict)
    service.register("load-vertex-types", load_vertex_types)
    service.register("typed-bfs", typed_bfs)
    service.register("path", path)
