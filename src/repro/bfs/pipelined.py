"""Algorithm 2: pipelined parallel out-of-core breadth-first search.

The communication-overlapping variant, as a *level strategy* only: the
search around it — direction decision, level-end allreduce, termination —
is Algorithm 1's (:func:`~repro.bfs.oocbfs._bfs_driver`),
and this module holds what Algorithm 2 adds to a push level.  While a rank
is still expanding the current fringe, it ships next-level fringe *chunks*
to their owners as soon as a per-destination buffer passes ``threshold``
(lines 16–19), and drains any chunks that have already arrived between
expansion batches (lines 24–27).  Because DataCutter sends are
non-blocking, the transfer of early chunks overlaps the remaining disk
reads of the level; at the level end only the stragglers are waited for.

Level-end protocol: leftover buffers are flushed, then an alltoall of
per-destination chunk counts tells every rank exactly how many data
messages to drain before the found/termination allreduce — preserving the
algorithm's level-synchronous semantics deterministically.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..graphdb.interface import GraphDB
from ..graphdb.metadata import MetadataStore
from ..simcluster.cluster import RankContext
from .failover import failover_rounds, prune_known_dead_pending, try_expand
from .oocbfs import _EMPTY, BFSConfig, _outgoing, _search

__all__ = ["pipelined_bfs_program"]

TAG_FRINGE_CHUNK = 77


def pipelined_bfs_program(
    ctx: RankContext,
    db: GraphDB,
    cfg: BFSConfig,
    visited: MetadataStore,
    threshold: int = 256,
    poll_batch: int = 64,
    owner_of=None,
):
    """Rank program (generator) implementing Algorithm 2.

    ``threshold`` is the pipelining chunk size of the pseudocode;
    ``poll_batch`` is how many fringe vertices are expanded between polls
    of the incoming message queue; ``owner_of`` as in Algorithm 1.
    """
    level = partial(_pipelined_level, threshold=threshold, poll_batch=poll_batch)
    return _search(ctx, db, cfg, visited, owner_of, level)


def _pipelined_level(
    ctx, db, cfg, visited, levcnt, fringe, owner_of, ft, threshold, poll_batch
):
    """Algorithm 2's push level: expand in batches, ship chunks as they fill."""
    comm = ctx.comm
    size = comm.size
    rank = comm.rank
    route_by = owner_of if cfg.owner_known else None
    next_fringe: list[np.ndarray] = []
    # Per destination: the pieces buffered for it and their running length.
    buffers: list[list[np.ndarray]] = [[] for _ in range(size)]
    buffered = [0] * size
    sent_chunks = [0] * size
    received_chunks = [0] * size
    found_here = False

    def absorb(vertices: np.ndarray) -> None:
        """Receiver-side filter (lines 25–27): keep the still-unvisited."""
        fresh = visited.unvisited(np.unique(vertices))
        visited.set_many(fresh, levcnt)
        next_fringe.append(fresh)

    def buffer(q: int, chunk: np.ndarray) -> None:
        buffers[q].append(chunk)
        buffered[q] += len(chunk)
        if buffered[q] >= threshold:
            flush(q)

    def flush(q: int) -> None:
        chunk = np.concatenate(buffers[q])
        if q == rank:
            absorb(chunk)
        else:
            comm.send(q, chunk, tag=TAG_FRINGE_CHUNK)
            sent_chunks[q] += 1
        buffers[q], buffered[q] = [], 0

    pending = _EMPTY
    for batch_start in range(0, max(len(fringe), 1), poll_batch):
        neighbors = try_expand(ctx, db, fringe[batch_start : batch_start + poll_batch], ft)
        if neighbors is None:
            # Device died (or timed out) mid-level: the unexpanded tail of
            # the fringe goes to the failover rounds after the level-end
            # settle.  Skipping the remaining batches (and their
            # opportunistic drains) is safe — the settle protocol below
            # still receives every in-flight chunk.
            pending = fringe[batch_start:]
            break
        if len(neighbors) and np.any(neighbors == cfg.dest):
            found_here = True
        candidates = np.unique(neighbors) if len(neighbors) else neighbors
        new = visited.unvisited(candidates)

        if cfg.owner_known:
            # Destinations in ascending rank order: the pseudocode's
            # per-rank loop, and its flush order.
            for q, chunk in enumerate(_outgoing(visited, new, levcnt, owner_of, comm, ft)):
                if len(chunk):
                    buffer(q, chunk)
        elif len(new):
            # Unknown mapping: every chunk goes to everyone (broadcast),
            # and is transferred to local storage as well (lines 20–22).
            for q in range(size):
                buffer(q, new)

        # Drain any chunks that have already arrived (lines 24–27);
        # overlapping this with expansion is the algorithm's point.
        while True:
            msg = yield from comm.try_recv(tag=TAG_FRINGE_CHUNK)
            if msg is None:
                break
            received_chunks[msg.source] += 1
            absorb(np.asarray(msg.payload, dtype=np.int64))

    # Level end: flush leftovers, settle message counts, drain stragglers.
    for q in range(size):
        if buffered[q]:
            flush(q)
    expected = yield from comm.alltoall(sent_chunks)
    for q in range(size):
        need = (expected[q] if q != rank else 0) - received_chunks[q]
        for _ in range(need):
            msg = yield from comm.recv(source=q, tag=TAG_FRINGE_CHUNK)
            absorb(np.asarray(msg.payload, dtype=np.int64))

    if ft is not None:
        if levcnt == 1:
            pending = prune_known_dead_pending(pending, ft, rank, route_by)
        # Collective failover for any shard left unexpanded, then one
        # synchronous exchange to route the recovered neighbors — the
        # pipelined chunk protocol for this level has already settled,
        # so recovered discoveries need their own (always-run, usually
        # empty) exchange to keep the collective order rank-uniform.
        extra = yield from failover_rounds(ctx, db, ft, pending, route_by)
        if len(extra) and np.any(extra == cfg.dest):
            found_here = True
        fresh = visited.unvisited(np.unique(extra)) if len(extra) else extra
        if cfg.owner_known:
            recovered = yield from comm.alltoall(
                _outgoing(visited, fresh, levcnt, owner_of, comm, ft)
            )
        else:
            recovered = yield from comm.allgather(fresh)
        for r in recovered:
            r = np.asarray(r, dtype=np.int64)
            if len(r):
                absorb(r)

    return (np.concatenate(next_fringe) if next_fringe else _EMPTY), found_here
