"""Extension analyses for the Query Service.

The paper positions MSSG as "a flexible and efficient framework to allow
the development and analysis of different graph algorithms" (ch. 6); BFS
is just the demonstration plug-in.  This module registers the analyses that
are that plug-in seen differently — each is Algorithm 1 run through
:meth:`QueryService._run_bfs`, with every per-query parameter ``bfs`` takes:

* **typed BFS** — ontology-constrained search (after Eliassi-Rad & Chow,
  the paper's reference [32]): only vertices whose type code, looked up in
  the replicated vertex-type table ``load-vertex-types`` fills, is in an
  allowed set may enter a fringe (:class:`TypeLens`);
* **path** — the relationship chain itself, walked back over the level maps
  the search leaves behind (:mod:`repro.bfs.paths`).

All register automatically via :func:`register_extensions`.
"""

from __future__ import annotations

import numpy as np

from ..bfs.oocbfs import BFSRankResult, oocbfs_program
from ..bfs.paths import path_program
from ..graphdb.metadata import MetadataStore
from ..util.errors import ConfigError
from .query import QueryReport, QueryService

__all__ = ["register_extensions"]


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


class TypeLens(MetadataStore):
    """A search's level map seen through a vertex-type lens.

    ``unvisited`` is the one question both a push level and a pull level ask
    before a vertex may enter a fringe, so also dropping the vertices whose
    entry in the replicated type table (``GraphDB.metadata``) is not an
    allowed code turns Algorithms 1 and 2 into the ontology-constrained
    search of the paper's reference [32] with no change to the driver.  The
    table is resident, so the check charges nothing; levels go straight to
    the wrapped store.
    """

    def __init__(self, levels: MetadataStore, types: MetadataStore, allowed_codes):
        self.levels = levels
        self.types = types
        self.allowed = np.asarray(allowed_codes, dtype=np.int64)

    def get(self, vertex: int) -> int:
        return self.levels.get(vertex)

    def set(self, vertex: int, value: int) -> None:
        self.levels.set(vertex, value)

    def get_many(self, vertices) -> np.ndarray:
        return self.levels.get_many(vertices)

    def set_many(self, vertices, value: int) -> None:
        self.levels.set_many(vertices, value)

    def admits(self, vertex: int) -> bool:
        return bool(np.isin(self.types.get(vertex), self.allowed))

    def unvisited(self, vertices) -> np.ndarray:
        vs = super().unvisited(vertices)
        return vs[np.isin(self.types.get_many(vs), self.allowed)]


def register_extensions(service: QueryService) -> None:
    """Register the extension analyses on a query service."""

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

    def typed_bfs(source, dest, allowed_codes, **params) -> QueryReport:
        """BFS that may only traverse allowed vertex types.

        The source's type is not asked; the destination must itself pass
        the lens to be found, which its table entry decides up front.
        """
        allowed = list(allowed_codes)  # once: every rank builds its own lens from it

        def program(ctx, db, cfg, visited, owner_of):
            lens = TypeLens(visited, db.metadata, allowed)
            if cfg.source != cfg.dest and not lens.admits(cfg.dest):
                return BFSRankResult()
            return (yield from oocbfs_program(ctx, db, cfg, lens, owner_of))

        results = service._run_bfs(program, source, dest, **params)
        return service._bfs_report(results, analysis="typed-bfs")

    def path(source, dest, **params) -> QueryReport:
        """Relationship chain: the actual shortest vertex path, not just
        its length (the "show me the connection" query of the paper's
        homeland-security motivation)."""
        results = service._run_bfs(path_program, source, dest, **params)
        report = service._bfs_report([r for r, _ in results], analysis="path")
        report.result = _agreed("path", [chain for _, chain in results])
        return report

    service.register("load-vertex-types", load_vertex_types)
    service.register("typed-bfs", typed_bfs)
    service.register("path", path)
