"""The envelope around a rank program: what an analysis gets for free.

The Query Service is a registry (§3.3, ch. 6): an analysis supplies its
algorithm and inherits the rest.  Beside the two engines (``_bfs_driver``,
``vertexprog_program``) this module is that rest, each concern written once
(``make check-envelope-owner``): :class:`RankResult`, what every rank
program reports; :func:`span`, its fault state (:mod:`repro.bfs.failover`
owns the policy) and measurement; :func:`level_mark`, where the concurrent
multiplexer interleaves and aborts it; :func:`sweep`, the guarded loop over
a store's adjacency.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..graphdb.interface import AdjacencyBatch
from .failover import FTState, guard

__all__ = ["RankResult", "span", "LevelMark", "level_mark", "adjacency_source", "sweep"]


@dataclass
class RankResult:
    """Per-rank outcome of a rank program; ``services.query.rank_report``
    folds one per back-end into the ``QueryReport``."""

    #: Virtual seconds and adjacency entries scanned inside the :func:`span`.
    seconds: float = 0.0
    edges_scanned: int = 0
    #: Shards this rank re-did on behalf of dead peers.
    failovers: int = 0
    #: Vertices whose adjacency was unreachable (all replicas dead).
    dropped_vertices: int = 0
    #: This rank's own device raised :class:`DeviceFailedError` mid-query.
    device_failed: bool = False
    #: This rank's own device returned a CRC-bad frame (detected corruption;
    #: the device still serves, so the back-end is repairable from replicas).
    corrupt: bool = False
    #: Some adjacency was never read — treat the result as a lower bound.
    partial: bool = False
    #: The query was aborted at a level mark because its deadline expired;
    #: implies ``partial`` unless the program had already terminated.
    deadline_exceeded: bool = False


@contextmanager
def span(ctx, db, ft_cfg, result: RankResult):
    """One run of a rank program: ``with span(...) as (result, ft)``.

    Entering starts the run's fault state (``None``: failover off); a program
    that keeps working after its engine returns does so inside the same
    span, on one dead set and one measurement.  Leaving writes ``seconds``,
    ``edges_scanned`` and the fault counters onto ``result`` (``partial``
    ORs: what the body flagged stays flagged).
    """
    ft = FTState.start(ft_cfg, ctx.comm.size, ctx.comm.rank)
    start, edges = ctx.clock.now, db.stats.edges_scanned
    try:
        yield result, ft
    finally:
        result.seconds = ctx.clock.now - start
        result.edges_scanned = db.stats.edges_scanned - edges
        if ft is not None:
            ft.fill(result)


class LevelMark(NamedTuple):
    """What a rank program yields between levels when ``cfg.level_marks``.

    Not a comm request (a bare ``Scheduler`` would raise on it): the
    multiplexer of :mod:`repro.services.scheduler` intercepts it to switch
    queries, and answers ``"abort"`` once the query's deadline has expired.
    """

    level: int
    #: The program has terminated: only its comm-free epilogue is left.
    done: bool
    #: ``"bottom-up"`` when the next level runs a shareable storage sweep.
    next_direction: str | None


def level_mark(result: RankResult, level: int, done: bool, next_direction=None):
    """Generator: suspend at a :class:`LevelMark` — no collective is in flight
    on any rank here; true when the caller must stop.  ``"abort"`` is a
    rank-uniform decision, and cuts an unfinished program off flagged."""
    if (yield LevelMark(level, done, next_direction)) != "abort":
        return False
    if not done:
        result.partial = True
        result.deadline_exceeded = True
    return True


def adjacency_source(db, candidates, done=None, shared=True):
    """Iterable of :class:`AdjacencyBatch` for a storage-order sweep.

    The historical plan is ``db.scan_adjacency(candidates, done)``.  When
    ``shared`` and the concurrent multiplexer armed a bottom-up sweep on this rank's
    :class:`~repro.services.sharedscan.ScanBoard`, the first consumer
    materializes ONE whole-store storage-order pass into a single batch of
    complete lists (``grouped``; no ``done`` — it serves everyone) and
    publishes it (keyed by the stored-edge count); later consumers
    serve their candidates from it — ``searchsorted`` over its sorted-vertex
    index plus one segment gather — with zero device work.  A vertex's list
    is the same either way and every consumer accounts per entry, so
    answers are bit-identical to the unshared plan; only the vertex order
    differs (``np.unique(candidates)`` order, not storage order).
    """
    board = getattr(db, "scan_board", None)
    if not shared or board is None or not board.armed("bottom-up"):
        return db.scan_adjacency(candidates, done)
    # The store-size token invalidates the shared batch across ingests.  It
    # holds the BASE store only, so in streaming drains queries pinned to
    # different admission snapshots still share the one device pass; each
    # consumer stacks its own overlay view on top from RAM below,
    # base-first per vertex — the same lists the unshared plan yields.
    token = db.stats.edges_stored
    base = board.lookup("bottom-up", token)
    if base is None:
        base = AdjacencyBatch.concat(db._scan_adjacency(None)).grouped()
        board.publish("bottom-up", token, base)
    wanted = np.unique(np.asarray(candidates, dtype=np.int64))
    view = db._overlay_view()
    parts = (base,) if view is None else (base, view.batch)
    batch = AdjacencyBatch.stack(wanted, *parts)
    return (batch,) if len(batch) else ()


def sweep(ctx, db, wanted, step, ft: FTState | None, done=None, shared=True):
    """One guarded pass over the adjacency of ``wanted``: ``(examined, ok)``.

    ``step(batch)`` returns how many of the batch's entries it examined;
    those pay ``edge_visit_seconds`` and count in ``stats.edges_scanned``
    even when the pass ends early — the work happened, and the scan charges
    only storage I/O.  ``ok`` is false when the device died (or the attempt
    blew the failover timeout) mid-pass and the caller must discard what
    ``step`` accumulated; with failover off the error propagates.  The
    source is built under the guard too: a shared board's first consumer
    does its device pass there.  ``done``: the scan's claim-feedback list.
    Between callers, not an option: ``shared=False`` keeps a sparse
    superstep off the ``ScanBoard``.
    """
    examined = 0
    with guard(ctx, ft) as attempt:
        try:
            for batch in adjacency_source(db, wanted, done, shared):
                examined += step(batch)
        finally:
            ctx.clock.advance(examined * db.cpu.edge_visit_seconds)
            db.stats.edges_scanned += examined
    return examined, attempt.ok
