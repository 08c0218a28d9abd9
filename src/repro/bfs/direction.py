"""Direction-optimizing BFS: the push/pull hybrid (Beamer et al., SC'12).

The paper's own Figure 5.6 crossover — StreamDB's full sequential scan
beating grDB's random-access expansion at low node counts — is the
signature that on scale-free graphs the mid-BFS fringe touches most of the
graph, where per-vertex adjacency requests are the wrong plan.  This module
adds the standard remedy on top of Algorithms 1 and 2:

* :class:`DirectionController` — one per rank, rank-uniform by
  construction: its inputs are only allreduced globals (fringe out-degree
  sum, new-fringe count, total stored edges), so every rank takes the same
  top-down/bottom-up decision at every level without extra communication.
  Top-down switches to bottom-up when ``edges_from_fringe > alpha *
  edges_to_unvisited`` and back when the fringe shrinks below
  ``n / beta`` (Beamer's hysteresis, alpha = 1/14, beta = 24).
* :func:`bottom_up_level` — one pull level: each rank builds the global
  fringe as a dense :class:`~repro.util.bitset.Bitset` by allgathering raw
  words (network cost n/8 bytes per post instead of 8 bytes per fringe
  vertex — the ndarray payload is charged by size like any other message),
  then scans its *local unvisited* vertices' adjacency sequentially via
  ``GraphDB.scan_adjacency``, claiming a vertex at its first fringe-parent
  hit and skipping the rest of its list — the claims feed back into the
  scan (``done``), so on grDB the rest of a claimed vertex's chain is never
  read.  Only examined entries pay ``edge_visit_seconds`` (early-exit
  accounting).

Failover composition (the protocol is :mod:`repro.bfs.failover`'s): dead
ranks still post their (empty) bitmap and claim arrays, keeping every
collective rank-uniform; when a device dies mid-scan the level runs bounded
claim-exchange rounds in which the first surviving member of each replica
chain re-scans the dead rank's responsibility set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.bitset import Bitset
from .failover import FTState, is_down, route_or_drop, serve_once
from .rankprog import sweep

__all__ = [
    "BOTTOM_UP",
    "TOP_DOWN",
    "DirectionConfig",
    "DirectionController",
    "bottom_up_level",
    "merge_level_stats",
]

TOP_DOWN = "top-down"
BOTTOM_UP = "bottom-up"

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class DirectionConfig:
    """Hybrid-search knobs carried on :class:`~repro.bfs.BFSConfig`.

    ``None`` in ``BFSConfig.direction`` disables the hybrid entirely: the
    drivers then run the original top-down algorithms with the original
    (two-element) level-end allreduce, byte-identical to the paper mode.
    """

    #: Global vertex-id space size (ids are ``[0, num_vertices)``); sizes
    #: the dense fringe bitmap and the ``n/beta`` switch-back threshold.
    num_vertices: int
    #: Switch top-down -> bottom-up when ``m_f > alpha * m_u`` (Beamer's
    #: ``m_f > m_u / alpha`` with alpha = 14, expressed as a factor).
    alpha: float = 1.0 / 14.0
    #: Switch bottom-up -> top-down when the fringe count drops below
    #: ``num_vertices / beta``.
    beta: float = 24.0
    #: Forced per-level schedule for tests/ablations: entry ``i`` is the
    #: direction of level ``i + 1``; levels past the end repeat the last
    #: entry.  ``("bottom-up",)`` forces pure bottom-up;
    #: ``("top-down",) * k + ("bottom-up",)`` switches at level ``k + 1``.
    schedule: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        if self.schedule is not None:
            for d in self.schedule:
                if d not in (TOP_DOWN, BOTTOM_UP):
                    raise ValueError(f"unknown direction {d!r} in schedule")


class DirectionController:
    """Per-level push/pull decision from allreduced globals only.

    Every rank constructs one from the same :class:`DirectionConfig` and
    feeds it the same allreduced level-end statistics, so the decision
    sequence is identical on all ranks with zero extra messages.
    """

    def __init__(self, cfg: DirectionConfig):
        self.cfg = cfg
        self.mode = TOP_DOWN
        #: Directed adjacency entries still reachable from unvisited
        #: vertices (``m_u``); unknown until the first level-end allreduce
        #: reports the global stored-edge count.
        self._m_u: int | None = None
        #: Out-degree sum of the current fringe (``m_f``).
        self._m_f = 0
        #: Current fringe vertex count (``n_f``); bootstrap fringe is {s}.
        self._n_f = 1
        #: Directions chosen so far, one per level (telemetry).
        self.history: list[str] = []

    def peek(self, level: int) -> str:
        """Direction :meth:`decide` *would* pick for ``level`` — no state change.

        The concurrent-query multiplexer calls this between levels to
        predict which in-flight queries are about to run a bottom-up scan
        (so it can arm a shared sweep); the prediction is exact because
        ``decide`` commits the same computation.
        """
        s = self.cfg.schedule
        if s is not None:
            return s[min(level - 1, len(s) - 1)]
        if self._m_u is None:
            # Bootstrap: the {s} fringe has been allreduced by no one yet.
            return TOP_DOWN
        if self.mode == TOP_DOWN:
            return BOTTOM_UP if self._m_f > self.cfg.alpha * self._m_u else TOP_DOWN
        return TOP_DOWN if self._n_f * self.cfg.beta < self.cfg.num_vertices else BOTTOM_UP

    def decide(self, level: int) -> str:
        """Direction for BFS level ``level`` (1-based)."""
        mode = self.peek(level)
        self.mode = mode
        self.history.append(mode)
        return mode

    def observe(self, total_new: int, fringe_degree: int, edges_stored: int = 0) -> None:
        """Fold one level-end allreduce into the global picture.

        ``fringe_degree`` is the out-degree sum of the *new* fringe (each
        vertex counted once — fringes are owner-partitioned);
        ``edges_stored`` seeds ``m_u`` on the first call (global directed
        adjacency entries, already divided by the replication factor).
        """
        if self._m_u is None:
            self._m_u = int(edges_stored)
        self._m_u = max(0, self._m_u - int(fringe_degree))
        self._m_f = int(fringe_degree)
        self._n_f = int(total_new)


def merge_level_stats(a, b):
    """Allreduce merge for the extended level-end 4-tuple.

    ``(found, new fringe count, new fringe out-degree sum, stored edges)``
    — element 0 ORs, the rest sum.  The last element is only populated on
    the first level (it seeds the controller's ``m_u``).
    """
    return (a[0] or b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _claim_batch(bm: Bitset, batch):
    """Claim each of ``batch``'s vertices at its first fringe parent: the
    claimed vertices in batch order, and how many entries a scan examines
    and skips when it stops reading a list at its first hit."""
    hit = bm.get_many(batch.neighbors)
    starts = batch.offsets[:-1]
    # Position of each entry that is a hit; the first one per segment is
    # the minimum (segments are never empty, so reduceat is safe).
    first = np.minimum.reduceat(np.where(hit, np.arange(len(hit)), len(hit)), starts)
    claimed = first < len(hit)
    examined = int(np.where(claimed, first - starts + 1, batch.degrees).sum())
    return batch.vertices[claimed], examined, len(hit) - examined


def _scan_claims(ctx, db, bm: Bitset, candidates, ft: FTState | None, result):
    """Sequentially scan ``candidates``, claiming each at its first hit.

    Returns ``(claims, ok)`` — :func:`~repro.bfs.rankprog.sweep`'s ``ok``: a
    failed attempt's partial claims are discarded by the caller.  Counts on
    ``result`` the entries examined and those delivered but skipped; what the
    scan never read because a claim stopped the list is counted nowhere here
    — it shows as device bytes not read.
    """
    # Claim feedback: the scan reads ``claims`` as its ``done`` list and
    # delivers nothing more for a vertex once it is in there.
    claims: list[np.ndarray] = []

    def claim(batch):
        got, seen, passed = _claim_batch(bm, batch)
        claims.append(got)
        result.edges_skipped += passed
        return seen

    examined, ok = sweep(ctx, db, candidates, claim, ft, done=claims)
    result.edges_examined += examined
    return (np.concatenate(claims) if claims else _EMPTY), ok


def bottom_up_level(ctx, db, cfg, visited, levcnt, fringe, owner_of, ft, dircfg, result):
    """One bottom-up (pull) BFS level; returns ``(new fringe, found_here)``.

    Must be entered by every rank at the same level (guaranteed by the
    rank-uniform controller).  The returned fringe is owner-partitioned —
    exactly the shape the next top-down level (or the next bitmap build)
    expects, so the two modes compose freely.
    """
    comm = ctx.comm
    rank = comm.rank

    # 1. Global fringe bitmap: every rank (dead ones included — the
    # collective must stay rank-uniform) posts its local fringe as raw
    # words; n/8 bytes on the wire per post, OR-merged zero-copy.
    bm = Bitset(dircfg.num_vertices)
    if len(fringe):
        bm.set_many(fringe)
    for words in (yield from comm.allgather(bm.words)):
        bm.or_words(np.asarray(words, dtype=np.uint64))

    # 2. Scan rounds (``serve_once``): every rank scans the unvisited local
    # vertices it is responsible for and posts ``(self_dead, claims)``; a
    # death announced in a round hands its share to the next surviving chain
    # members in the next round.
    all_claims: list[np.ndarray] = []

    def scan(todo):
        # With failover off the scan runs even over nothing: when a shared
        # sweep is armed its first consumer is the one that publishes it.
        if not len(todo) and ft is not None:
            return _EMPTY
        claims, ok = _scan_claims(ctx, db, bm, todo, ft, result)
        return claims if ok else _EMPTY

    def exchange(claims):
        if ft is None:
            # Claims are owner-local, so a healthy level needs no claim
            # exchange at all — peers learn the new fringe from the next
            # level's bitmap/alltoall as usual.
            visited.set_many(claims, levcnt)
            all_claims.append(claims)
            return None
        posts = yield from comm.allgather((is_down(ft), claims))
        merged = [np.asarray(c, dtype=np.int64) for _, c in posts if len(c)]
        if merged:
            round_claims = np.unique(np.concatenate(merged))
            # Every rank marks every claim: replica holders must see the
            # vertex as visited or they would re-claim it after a later
            # failover re-assignment.
            visited.set_many(round_claims, levcnt)
            all_claims.append(round_claims)
        return [down for down, _ in posts]

    yield from serve_once(
        ctx, ft, lambda: visited.unvisited_local(db.local_vertices), owner_of, scan, exchange
    )
    if ft is None:
        (claims,) = all_claims
        return claims, bool(len(claims)) and bool(np.any(claims == cfg.dest))

    claims = np.unique(np.concatenate(all_claims)) if all_claims else _EMPTY
    found_here = bool(len(claims)) and bool(np.any(claims == cfg.dest))
    if not len(claims):
        return claims, found_here
    # 3. The next-level fringe shard of each claim is its first surviving
    # holder under the *final* dead set (its claimer may have died right
    # after posting).  A claim whose whole chain died is dropped — counted
    # once, on its primary owner.
    claims, routes, _ = route_or_drop(claims, owner_of(claims), ft, primary=rank)
    return claims[routes == rank], found_here
