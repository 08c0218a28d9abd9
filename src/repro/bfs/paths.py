"""Relationship chains: the backward walk behind the ``path`` analysis.

The paper's motivating use case (ch. 1, after Kolda et al.) is
*relationship analysis*: not just "how far apart are these two entities"
but "show me the chain that connects them".  The search is Algorithm 1
itself — batched I/O, direction switch and failover included — and the
chain is read off the level maps it leaves behind: walking back from the
destination, each hop expands the current vertex the way a push level does
and steps to a neighbour one level closer to the source.

No rank holds every level.  A rank marks the vertices it settles at their
true level and the ones it hands off at the level it saw them, which is
never too low; the rank that first discovered a vertex holds its true
level, so the minimum over ranks is exact — in owner-routed, broadcast and
replicated layouts alike.
"""

from __future__ import annotations

import numpy as np

from ..graphdb.interface import GraphDB
from ..graphdb.metadata import MetadataStore
from ..simcluster.cluster import RankContext
from .failover import responsibility
from .oocbfs import (
    NOT_FOUND,
    BFSConfig,
    BFSRankResult,
    _bfs_driver,
    _default_owner,
    _expand_shard,
    _synchronous_level,
)
from .rankprog import span

__all__ = ["path_program"]


def path_program(
    ctx: RankContext,
    db: GraphDB,
    cfg: BFSConfig,
    visited: MetadataStore,
    owner_of=None,
):
    """Rank program: Algorithm 1, then the chain it found.

    Returns ``(BFSRankResult, path)``; the path is ``[source, ..., dest]``
    with ``len(path) - 1`` equal to the hop distance, identical on every
    rank, or ``None`` when the destination was not reached — or when a hop
    has no parent left to step to (its whole replica chain is dead, or a
    pull level run after a death re-marked a settled vertex too high):
    then the result is flagged ``partial``, never an invalid chain.
    """
    if owner_of is None:
        owner_of = _default_owner(ctx.comm.size)
    path = None
    # One span over both phases: the walk expands under the fault state the
    # search ran with, and its time and reads are the query's as well.
    with span(ctx, db, cfg.ft, BFSRankResult()) as (result, ft):
        yield from _bfs_driver(ctx, db, cfg, visited, owner_of, _synchronous_level, result, ft)
        if result.found_level != NOT_FOUND:
            path = yield from _walk_back(ctx, db, cfg, visited, owner_of, ft, result.found_level)
            result.partial |= path is None
    return result, path


def _walk_back(ctx, db, cfg, visited, owner_of, ft, distance):
    """The chain behind a search that found ``dest`` at level ``distance``;
    ``None`` when some hop has no neighbour one level closer.  Collective:
    every rank walks the same chain (the smallest-id parent at each hop)."""
    comm = ctx.comm
    chain = [cfg.dest]
    for level in range(distance - 1, 0, -1):
        # Expanded exactly as a push level would: by the rank serving the
        # vertex now (by every rank when the mapping is unknown), and by a
        # surviving replica after the failover rounds when that rank is down.
        shard = np.array(chain[-1:], dtype=np.int64)
        if cfg.owner_known:
            shard = responsibility(shard, owner_of, comm.rank, ft)
        neighbors = yield from _expand_shard(ctx, db, cfg, shard, owner_of, ft)
        posts = yield from comm.allgather(np.unique(neighbors))
        near = np.unique(np.concatenate(posts))
        levels = yield from comm.allreduce(visited.get_many(near), np.minimum)
        parents = near[levels == level]
        if not len(parents):
            return None
        chain.append(int(parents[0]))
    if distance:
        chain.append(cfg.source)
    return chain[::-1]
