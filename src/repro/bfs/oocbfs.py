"""Algorithm 1: parallel out-of-core breadth-first search.

Faithful to the paper's pseudocode with three documented repairs:

* the bootstrap fringe is ``{s}`` on every rank (rather than ``adj(s)``), so
  a destination adjacent to the source is found at level 1 — the published
  pseudocode never tests the initial fringe against ``d``;
* the asynchronous "found" message is folded into the level-end allreduce
  (the search is level-synchronous either way, so the reported level is
  identical and the simulation stays deterministic);
* the receiver-side ``level[v] = infinity`` filter of Algorithm 2 (lines
  25–27) is applied in Algorithm 1 as well, preventing re-expansion of
  vertices rediscovered by a rank that does not own them; and global
  termination on an empty fringe (absent from the pseudocode) returns
  "infinity".

Both data distributions are supported: vertex-level granularity with the
globally known ``GID % p`` map (fringe vertices are routed to their owners,
line 16–19), and the unknown-mapping/edge-granularity case where the new
fringe is broadcast to all processors (line 21).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphdb.interface import GraphDB
from ..graphdb.metadata import MetadataStore
from ..simcluster.cluster import RankContext
from ..util.errors import ConfigError
from .direction import (
    BOTTOM_UP,
    DirectionConfig,
    DirectionController,
    bottom_up_level,
    merge_level_stats,
)
from .failover import (
    FaultTolerance,
    failover_rounds,
    prune_known_dead_pending,
    route_or_drop,
    try_expand,
)
from .rankprog import RankResult, level_mark, span

__all__ = ["BFSConfig", "BFSRankResult", "oocbfs_program"]

NOT_FOUND = -1

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class BFSConfig:
    """One s–d relationship query."""

    source: int
    dest: int
    #: Every stored id is below this (``None``: no such bound is known).
    #: Sizes nothing here; it only lets a search from outside the id space
    #: end before it marks anything.
    num_vertices: int | None = None
    #: Vertex-granularity declustering with the globally known GID % p map?
    owner_known: bool = True
    #: Levels searched at most; ``0`` searches none (only ``source == dest``
    #: is found).
    max_levels: int = 64
    #: Fault-tolerance knobs (replication factor, per-attempt timeout,
    #: replica chains).  ``None`` disables the failover protocol entirely and runs
    #: the original algorithms with zero extra communication.
    ft: FaultTolerance | None = None
    #: Direction-optimizing (push/pull hybrid) knobs.  ``None`` — or an
    #: unknown vertex->owner mapping, which has no one to pull toward —
    #: keeps the original pure top-down search, byte-identical to the
    #: paper mode (the level-end allreduce stays the two-element tuple).
    direction: DirectionConfig | None = None
    #: Yield a :class:`~repro.bfs.rankprog.LevelMark` after every level-end
    #: allreduce (and one before level 1).  ``False`` (the default, and the
    #: only value paper mode uses) keeps the yield sequence byte-identical
    #: to the original algorithm.
    level_marks: bool = False

    def __post_init__(self):
        if self.max_levels < 0:
            raise ConfigError(f"max_levels must be >= 0, got {self.max_levels}")


@dataclass
class BFSRankResult(RankResult):
    """Per-rank outcome of one search; the harness aggregates across ranks."""

    found_level: int = NOT_FOUND
    levels_expanded: int = 0
    fringe_vertices: int = 0
    #: Direction chosen per level when the hybrid is on (rank-uniform, so
    #: identical on every rank); empty for pure top-down runs.
    directions: list = field(default_factory=list)
    #: Adjacency entries actually examined by bottom-up claim checks.
    edges_examined: int = 0
    #: Adjacency entries skipped by bottom-up early exit (claimed at an
    #: earlier slot of the list).
    edges_skipped: int = 0


def _merge_found(a: tuple[bool, int], b: tuple[bool, int]) -> tuple[bool, int]:
    return (a[0] or b[0], a[1] + b[1])


def oocbfs_program(
    ctx: RankContext,
    db: GraphDB,
    cfg: BFSConfig,
    visited: MetadataStore,
    owner_of=None,
):
    """Rank program (generator) implementing Algorithm 1.

    Run on every back-end rank of a :class:`SimCluster`; returns a
    :class:`BFSRankResult`.  ``owner_of`` maps a vertex array to owner
    ranks when ``cfg.owner_known`` (default: ``GID % p``, the paper's
    globally known mapping).
    """
    return _search(ctx, db, cfg, visited, owner_of, _synchronous_level)


def _default_owner(size: int):
    return lambda vs: vs % size  # the paper's globally known GID % p map


def _search(ctx, db, cfg, visited, owner_of, top_down_level):
    """Algorithm 1 or 2 (``top_down_level`` says which) inside its own span."""
    if owner_of is None:
        owner_of = _default_owner(ctx.comm.size)
    with span(ctx, db, cfg.ft, BFSRankResult()) as (result, ft):
        yield from _bfs_driver(ctx, db, cfg, visited, owner_of, top_down_level, result, ft)
    return result


def _bfs_driver(ctx, db, cfg, visited, owner_of, top_down_level, result, ft):
    """The level-synchronous search both algorithms are.

    Owns everything but the shape of a push level: the direction decision,
    the level-end allreduce (and the controller's feed), level marks and
    deadline aborts, termination.
    ``top_down_level(ctx, db, cfg, visited, levcnt, fringe, owner_of, ft)``
    is a generator returning ``(new fringe, found_here)`` like
    :func:`~repro.bfs.direction.bottom_up_level`: Algorithm 1 expands the
    whole fringe and exchanges once, Algorithm 2 overlaps the exchange with
    the expansion.  Runs inside the caller's :func:`~repro.bfs.rankprog.span`
    and writes the search's own fields onto its ``result``.
    """
    comm = ctx.comm
    if cfg.source == cfg.dest:
        result.found_level = 0
        return
    if cfg.max_levels == 0:
        return

    # The hybrid needs a vertex->owner map to know which unvisited vertices
    # to pull for; in broadcast (unknown-mapping) mode it stays off.
    dctl = (
        DirectionController(cfg.direction)
        if cfg.direction is not None and cfg.owner_known
        else None
    )
    if cfg.source < 0 or cfg.num_vertices is not None and cfg.source >= cfg.num_vertices:
        # Outside the id space nothing is stored (store_edges rejects
        # negative ids), so nothing is reachable — and neither a dense level
        # array, a paged one nor a pull level's fringe bitmap has a slot for
        # the source.  Every other id a search marks is a stored one.
        return

    visited.set(cfg.source, 0)
    fringe = np.array([cfg.source], dtype=np.int64)
    levcnt = 0

    # Pre-admission mark: lets the multiplexer place this query in its
    # round-robin order (and predict a level-1 bottom-up scan) before
    # any I/O or comm happens on its behalf.
    if cfg.level_marks and (
        yield from level_mark(result, 0, False, dctl.peek(1) if dctl is not None else None)
    ):
        return

    while True:
        levcnt += 1
        if dctl is not None and dctl.decide(levcnt) == BOTTOM_UP:
            # A pull level has nothing to pipeline — the fringe travels as
            # one bitmap, not as chunks — so both algorithms run the same
            # one.  Rank-uniform: every rank takes this branch.
            result.directions.append(BOTTOM_UP)
            fringe, found_here = yield from bottom_up_level(
                ctx, db, cfg, visited, levcnt, fringe, owner_of, ft, cfg.direction, result
            )
        else:
            if dctl is not None:
                result.directions.append(dctl.mode)
            fringe, found_here = yield from top_down_level(
                ctx, db, cfg, visited, levcnt, fringe, owner_of, ft
            )
        result.fringe_vertices += len(fringe)

        if dctl is None:
            found_any, total_new = yield from comm.allreduce(
                (found_here, len(fringe)), _merge_found
            )
        else:
            # Extended level-end allreduce: the controller's inputs ride the
            # collective the level ends with anyway.  The stored-edge count
            # seeds m_u on the first level only (divided by the replication
            # factor — every copy of a partition stores the full adjacency).
            repl = ft.replication if ft is not None else 1
            stored = db.stats.edges_stored if levcnt == 1 else 0
            found_any, total_new, fringe_degree, stored_total = yield from comm.allreduce(
                (found_here, len(fringe), int(db.degree_many(fringe).sum()), stored),
                merge_level_stats,
            )
            dctl.observe(total_new, fringe_degree, stored_total // max(1, repl))
        result.levels_expanded = levcnt
        if found_any:
            result.found_level = levcnt
        done = found_any or total_new == 0 or levcnt >= cfg.max_levels
        if cfg.level_marks and (
            yield from level_mark(
                result, levcnt, done, dctl.peek(levcnt + 1) if dctl is not None else None
            )
        ):
            return
        if done:
            return


def _outgoing(visited, new, levcnt, owner_of, comm, ft):
    """Newly discovered vertices, one array per rank that expands them next.

    Vertices owned by dead ranks are steered straight to their first
    surviving replica; those whose whole chain is gone are dropped, and
    marked so that they are not rediscovered (and recounted) at every
    later level.
    """
    new, owners, lost = route_or_drop(new, owner_of(new), ft)
    if len(lost):
        visited.set_many(lost, levcnt)
    # Sender-side marking (line 14) for vertices we hand off; our own
    # discoveries are marked on receipt like everyone else's.
    visited.set_many(new[owners != comm.rank], levcnt)
    # One stable sort groups the new fringe by destination rank instead of
    # size boolean-mask passes over the whole array.
    order = np.argsort(owners, kind="stable")
    grouped = new[order]
    dests, starts = np.unique(owners[order], return_index=True)
    bounds = np.append(starts, len(grouped))
    parts = [_EMPTY] * comm.size
    for j, q in enumerate(dests):
        parts[int(q)] = grouped[bounds[j] : bounds[j + 1]]
    return parts


def _expand_shard(ctx, db, cfg, fringe, owner_of, ft, bootstrap=False):
    """Everything adjacent to this rank's ``fringe`` shard — and, after the
    collective failover rounds, to the shards of dead peers it serves.

    ``bootstrap``: every rank holds the same ``fringe`` (level 1's ``{s}``).
    """
    route_by = owner_of if cfg.owner_known else None
    # A device failure (or timeout) turns this rank's whole shard into
    # ``pending``, which the collective failover rounds re-expand on a
    # surviving replica.
    neighbors = try_expand(ctx, db, fringe, ft)
    pending = fringe if neighbors is None else _EMPTY
    if bootstrap:
        pending = prune_known_dead_pending(pending, ft, ctx.comm.rank, route_by)
    extra = yield from failover_rounds(ctx, db, ft, pending, route_by)
    if neighbors is None:
        return extra
    if len(extra):
        return np.concatenate([neighbors, extra]) if len(neighbors) else extra
    return neighbors


def _synchronous_level(ctx, db, cfg, visited, levcnt, fringe, owner_of, ft):
    """Algorithm 1's push level: expand the whole fringe, exchange once."""
    comm = ctx.comm
    neighbors = yield from _expand_shard(
        ctx, db, cfg, fringe, owner_of, ft, bootstrap=levcnt == 1
    )
    found_here = bool(len(neighbors)) and bool(np.any(neighbors == cfg.dest))

    candidates = np.unique(neighbors) if len(neighbors) else neighbors
    new = visited.unvisited(candidates)

    if cfg.owner_known:
        received = yield from comm.alltoall(
            _outgoing(visited, new, levcnt, owner_of, comm, ft)
        )
    else:
        # Mapping unknown: broadcast the new fringe to all processors.
        received = yield from comm.allgather(new)

    incoming = (
        np.unique(np.concatenate([np.asarray(r, dtype=np.int64) for r in received]))
        if any(len(r) for r in received)
        else _EMPTY
    )
    fresh = visited.unvisited(incoming)
    visited.set_many(fresh, levcnt)
    return fresh, found_here
