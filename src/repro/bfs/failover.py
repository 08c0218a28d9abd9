"""Query-side fault tolerance: the one owner of the failover protocol.

MSSG's Algorithms 1 and 2 assume every back-end's disk answers every
expand.  This module relaxes that: with k-replica rotational declustering
(:class:`~repro.services.declustering.ReplicatedDeclusterer`) the partition
whose primary owner is rank ``q`` also lives on ranks ``q+1 .. q+k-1``
(mod p), so when a device dies mid-query a surviving replica re-does the
dead rank's share.

Every rank program that fails over — Algorithms 1 and 2 (through
:func:`failover_rounds`), ``degree``, the bottom-up level and the
vertex-program superstep loop (through :func:`serve_once`) — is written in
this module's vocabulary, and no other module reads a
:class:`FaultTolerance` field, writes an :class:`FTState` field or decides
who serves a partition (``make check-failover-owner``):

* :meth:`FTState.start` — the per-run state, ``None`` when failover is off,
  seeded with the ranks recorded dead up front;
* :class:`guard` — device work done under it turns a
  :class:`~repro.util.errors.DeviceFailedError`, a
  :class:`~repro.util.errors.CorruptBlockError` or a blown per-attempt
  timeout into the sticky "this rank no longer serves" state, and re-raises
  when failover is off;
* :func:`responsibility` / :func:`route_or_drop` — who serves a vertex
  now: the first surviving member of its replica chain (one chain matrix,
  rotational or rebalanced); a vertex whose whole chain is dead is
  *dropped* (counted, and the result flagged partial on the rank result and
  ultimately the ``QueryReport``);
* :func:`serve_once` — the one loop that serves a candidate set on the
  ranks responsible for it: bounded retry rounds around the rank program's
  own attempt and exchange, each rank skipping what it already attempted,
  and the chain-dead rule at the end;
* :meth:`FTState.fill` — the counters a rank result carries.

Only the two loops (:func:`serve_once`, and :func:`failover_rounds`, whose
candidates arrive in its exchange) communicate, and only through the
collective their caller hands them: the protocol is collective and
level-synchronous, and a dead rank keeps taking part in every collective —
which is what keeps the simulation deterministic and deadlock-free.  Once a
death is known all further routing goes straight to the first surviving
replica, so a failure costs one retry round rather than one per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.errors import CorruptBlockError, DeviceFailedError

__all__ = [
    "FaultTolerance",
    "FTState",
    "guard",
    "is_down",
    "try_expand",
    "route_to_replicas",
    "responsibility",
    "route_or_drop",
    "serve_once",
    "failover_rounds",
    "prune_known_dead_pending",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: Failover rounds attempted per BFS level (or superstep) before degrading
#: to a partial result.
MAX_RETRIES = 2


@dataclass(frozen=True)
class FaultTolerance:
    """Degraded-mode knobs carried on :class:`~repro.bfs.BFSConfig`.

    ``None`` in ``BFSConfig.ft`` disables the protocol entirely (the
    pre-replication code path, with zero extra communication).
    """

    #: Copies of each adjacency partition (must match ingestion-side
    #: replication; 1 means failures can only degrade, never fail over).
    replication: int = 1
    #: Per-attempt expand budget in virtual seconds; an attempt that costs
    #: more is treated like a device failure (straggler demotion).
    #: ``None`` disables the timeout.
    attempt_timeout: float | None = None
    #: Per-primary holder chains (``chains[u]`` = ranks storing a copy of
    #: partition ``u``, in routing order): the declusterer's chain map.
    #: ``None`` means the rotational ``{(u + j) % p : j < replication}``.
    chains: tuple[tuple[int, ...], ...] | None = None
    #: Ranks already known dead before the query starts (e.g. recorded by a
    #: rebalance pass).  Seeding them avoids the discovery round: nothing
    #: is ever routed to them, so an already-repaired cluster pays zero
    #: failover rounds.
    known_dead: frozenset = frozenset()


@dataclass
class FTState:
    """Per-rank fault bookkeeping for one run of a rank program."""

    cfg: FaultTolerance
    size: int
    #: Ranks known (cluster-wide) to no longer serve expansions.
    dead: set = field(default_factory=set)
    self_dead: bool = False
    device_failed: bool = False  # own device raised DeviceFailedError
    corrupt: bool = False  # own device returned a CRC-bad frame
    timed_out: bool = False  # own expand blew the per-attempt timeout
    failovers: int = 0  # shards this rank re-expanded for dead peers
    dropped: int = 0  # fringe vertices whose adjacency was lost
    partial: bool = False
    #: Lazily built by :meth:`chain_matrix`.
    _chain_arr: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.dead.update(self.cfg.known_dead)

    @classmethod
    def start(cls, cfg: FaultTolerance | None, size: int, rank: int) -> "FTState | None":
        """The state one rank program runs with; ``None`` = failover off."""
        if cfg is None:
            return None
        ft = cls(cfg, size)
        # A rank on record as dead (e.g. from a rebalance pass) does not
        # bang on its device to rediscover it.
        ft.self_dead = rank in cfg.known_dead
        return ft

    @property
    def replication(self) -> int:
        return self.cfg.replication

    def fill(self, result) -> None:
        """Copy the counters onto a :class:`~repro.bfs.rankprog.RankResult`
        (called by its ``span``).  ``partial`` ORs: a deadline abort flagged
        it already, and nothing the fault state knows can take that back."""
        result.failovers = self.failovers
        result.dropped_vertices = self.dropped
        result.device_failed = self.device_failed
        result.corrupt = self.corrupt
        result.partial |= self.partial

    def chain_matrix(self) -> np.ndarray:
        """The holder chains as an int64 ``(p, max_chain)`` matrix padded
        with ``-1`` — the one table every route is read from."""
        if self._chain_arr is None:
            chains = self.cfg.chains or [
                [(u + j) % self.size for j in range(self.cfg.replication)]
                for u in range(self.size)
            ]
            width = max((len(c) for c in chains), default=0)
            arr = np.full((len(chains), max(width, 1)), -1, dtype=np.int64)
            for u, c in enumerate(chains):
                arr[u, : len(c)] = c
            self._chain_arr = arr
        return self._chain_arr

    def chain_of(self, primary: int) -> list[int]:
        """Holder ranks of ``primary``'s partition, in routing order."""
        return [int(r) for r in self.chain_matrix()[primary] if r >= 0]

    def flag_unserved(self, primary: int) -> None:
        """A sweep over everything ``primary``'s partition still owes has
        just ended.  With every holder of that partition dead no live rank
        could enumerate its vertices, let alone serve them: the result is
        incomplete by a number of vertices nobody can count, so ``dropped``
        cannot say it and ``partial`` must."""
        if all(r in self.dead for r in self.chain_of(primary)):
            self.partial = True


def is_down(ft: FTState | None) -> bool:
    """Has this rank stopped serving?  Never, with failover off: the error
    that would have taken it down propagated instead."""
    return ft is not None and ft.self_dead


class guard:
    """Device work of one attempt: ``with guard(ctx, ft) as g: ...``.

    Converts an injected device failure — or, unless ``timed=False``, an
    attempt that exceeds the per-attempt virtual-time budget — into the
    sticky ``self_dead`` state and leaves ``g.ok`` false; the caller
    discards the attempt's results.  A timed-out attempt's virtual time
    stays charged (the work happened, the coordinator just stopped
    waiting), mirroring how a straggling disk looks indistinguishable from
    a dead one from the query's side.

    A :class:`CorruptBlockError` (CRC-bad frame, detected by the checksum
    layer) takes the same reroute path — the rank stops serving and its
    share fails over to the next replica — but is flagged as ``corrupt``
    rather than ``device_failed``: the disk is alive and repairable, and
    the query layer schedules read-repair for it instead of declaring the
    back-end dead.

    With failover off (``ft is None``) nothing is caught: a storage error
    propagates out of the rank program, as it did before replication.
    """

    __slots__ = ("ok", "_ctx", "_ft", "_timed", "_start")

    def __init__(self, ctx, ft: FTState | None, timed: bool = True):
        self.ok = True
        self._ctx = ctx
        self._ft = ft
        self._timed = timed

    def __enter__(self):
        self._start = self._ctx.clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ft = self._ft
        if ft is None:
            return False
        if exc_type is None:
            timeout = ft.cfg.attempt_timeout if self._timed else None
            if timeout is not None and self._ctx.clock.now - self._start > timeout:
                ft.self_dead = ft.timed_out = True
                self.ok = False
            return False
        if not isinstance(exc, DeviceFailedError):
            return False
        ft.self_dead = True
        if isinstance(exc, CorruptBlockError):
            ft.corrupt = True
        else:
            ft.device_failed = True
        self.ok = False
        return True


def try_expand(ctx, db, vertices, ft: FTState | None):
    """Expand ``vertices`` locally; ``None`` means this rank cannot serve.

    One guarded attempt (see :class:`guard`): a rank that is already down
    does not touch its device again.
    """
    if is_down(ft):
        return None
    with guard(ctx, ft) as attempt:
        # adj_Gi(v) for every vertex; non-local vertices contribute the
        # empty set through the GraphDB contract.
        neighbors = db.expand_fringe(vertices)
    return neighbors if attempt.ok else None


def route_to_replicas(owners, ft: FTState) -> np.ndarray:
    """Map primary owners to the first surviving rank of each replica chain.

    Returns an int64 route array; ``-1`` marks vertices whose entire chain
    is dead (their adjacency is unreachable — the caller drops them and
    flags a partial result).
    """
    cand = ft.chain_matrix()[np.asarray(owners, dtype=np.int64)]  # (n, max_chain)
    alive = cand >= 0
    if ft.dead:
        alive &= ~np.isin(cand, list(ft.dead))
    routes = cand[np.arange(len(cand)), np.argmax(alive, axis=1)]
    routes[~alive.any(axis=1)] = -1
    return routes


def responsibility(vertices: np.ndarray, owner_of, rank: int, ft: FTState | None):
    """The subset of ``vertices`` this rank must serve.

    Healthy: the vertices it primarily owns.  Under failover: those whose
    replica chain it is the first surviving member of — so a dead rank's
    share deterministically moves to its replicas, every vertex with a live
    holder is served exactly once across the cluster (what additive
    combiners rely on), and one whose whole chain is dead by no rank.
    """
    if not len(vertices):
        return vertices
    owners = np.asarray(owner_of(vertices), dtype=np.int64)
    # The owners themselves until a death is known — a healthy run routes
    # exactly as the paper's algorithms do.
    routes = owners if ft is None or not ft.dead else route_to_replicas(owners, ft)
    return vertices[routes == rank]


def route_or_drop(vertices: np.ndarray, owners, ft: FTState | None, primary: int | None = None):
    """Route ``vertices`` (rows, for a 2-D array) to the ranks serving them.

    Returns ``(kept, routes, lost)``: what can be routed, where to, and the
    entries whose whole replica chain is dead.  The lost are counted as
    dropped and flag the result partial.  A rank's own discoveries count
    every lost entry; a rank-uniform set (every rank routes the same
    ``vertices``) passes ``primary=rank`` and counts each once, on its
    primary owner — whose program, though dead, still runs.
    """
    owners = np.asarray(owners, dtype=np.int64)
    if ft is None or not ft.dead:
        return vertices, owners, vertices[:0]
    routes = route_to_replicas(owners, ft)
    gone = routes == -1
    if not gone.any():
        return vertices, routes, vertices[:0]
    ft.dropped += int(gone.sum() if primary is None else (owners[gone] == primary).sum())
    ft.partial = True
    return vertices[~gone], routes[~gone], vertices[gone]


class _RetryRounds:
    """One level's (or superstep's) bounded retry rounds: merging announced
    deaths, the :data:`MAX_RETRIES` budget, the ``partial`` flag when it runs
    out, and the pick-up count.  Every rank feeds it the same announced
    flags, so all ranks run the same number of rounds."""

    def __init__(self, ft: FTState | None):
        self.ft = ft
        #: Retry rounds spent so far (the first round is not a retry).
        self.extra = 0

    def picked_up(self, todo) -> None:
        """About to serve ``todo``: in a retry round a non-empty share is a
        dead peer's shard — one failover."""
        if self.extra and len(todo):
            self.ft.failovers += 1

    def announce(self, flags) -> bool:
        """Merge the deaths one round's exchange announced; any news?"""
        dead = self.ft.dead
        known = len(dead)
        dead.update(q for q, is_dead in enumerate(flags) if is_dead)
        return len(dead) > known

    def another(self) -> bool:
        """Spend one retry round; out of budget degrades to ``partial``
        instead of looping forever."""
        if self.extra >= MAX_RETRIES:
            self.ft.partial = True
            return False
        self.extra += 1
        return True

    def settle(self, flags, reroute: bool) -> bool:
        """End a round whose exchange announced ``flags`` (``flags[q]``:
        rank ``q`` is down).  True when a new death leaves its share to be
        re-done in another round.  ``reroute=False``: there is no owner map
        to re-route by (edge granularity) — the dead rank's slice is covered
        exactly when the data is replicated.
        """
        if self.ft is None or not self.announce(flags):
            return False
        if not reroute:
            if self.ft.cfg.replication <= 1:
                self.ft.partial = True
            return False
        return self.another()


def serve_once(ctx, ft: FTState | None, candidates, owner_of, attempt, exchange):
    """Collective: serve each candidate once, on the rank that serves it now.

    Every rank calls it at the same point; returns the last round's down
    flags (``None`` with failover off).  ``candidates`` is one array every
    rank holds (``degree``'s vertices, a superstep's active set) or a
    callable enumerating this rank's own (its local or unvisited vertices),
    which may read the device — StreamDB replays its log — and so runs under
    :class:`guard`.  Each round a live rank keeps its :func:`responsibility`
    share (with ``owner_of=None``, edge granularity: all it enumerates, its
    own stored slice) less what it attempted in an earlier round, in
    candidate order; ``attempt(todo)`` serves that and returns the rank's
    post (a down rank attempts an empty share), and ``exchange(post)`` is
    the round's collective: a generator returning every rank's down flag,
    or ``None`` for no collective.  A death it announces moves the dead
    rank's share along its chains in another round, within :data:`MAX_RETRIES`.

    Routes only move forward along a chain as the dead set grows, so a rank
    is handed a vertex another rank attempted only once that rank is down:
    what the ranks up at the end posted holds every candidate with a live
    holder exactly once (unless the budget ran out, flagged ``partial``),
    and what a rank down at the end posted is void.  Whole chains dead: a
    rank-uniform set counts each such vertex dropped once, on its primary
    owner; a per-rank enumeration cannot count what no live rank can
    enumerate, and flags ``partial``.
    """
    rank = ctx.comm.rank
    per_rank = callable(candidates)
    retry = _RetryRounds(ft)
    attempted = _EMPTY
    while True:
        todo = _EMPTY
        if not is_down(ft):
            with guard(ctx, ft, timed=False):
                todo = candidates() if per_rank else candidates
                if owner_of is not None:
                    todo = responsibility(todo, owner_of, rank, ft)
                if len(attempted):
                    todo = todo[~np.isin(todo, attempted)]
        retry.picked_up(todo)
        post = attempt(todo)
        flags = yield from exchange(post)
        if not retry.settle(flags, reroute=owner_of is not None):
            break
        attempted = np.concatenate([attempted, todo])  # a rank down now attempts nothing more
    if ft is not None:
        if per_rank:
            ft.flag_unserved(rank)
        elif owner_of is not None:
            route_or_drop(candidates, owner_of(candidates), ft, primary=rank)
    return flags


def prune_known_dead_pending(pending, ft: FTState | None, rank: int, owner_of) -> np.ndarray:
    """Bootstrap-level shard pruning for ranks recorded dead up front.

    The bootstrap fringe ``{s}`` is held by *every* rank, so a rank seeded
    dead via ``known_dead`` has nothing to fail over at level 1: whichever
    alive holder stores the source's partition expanded the same fringe
    against its local copy already.  Only vertices whose whole chain is dead
    stay pending, so a truly unreachable source is still detected, dropped
    and flagged.  This is what makes an already-rebalanced cluster pay zero
    failover rounds.
    """
    if ft is None or not len(pending) or rank not in ft.cfg.known_dead or owner_of is None:
        return pending
    routes = route_to_replicas(owner_of(pending), ft)
    return pending[routes == -1]


def failover_rounds(ctx, db, ft: FTState | None, pending, owner_of):
    """Collective per-level failover; returns neighbors recovered here.

    Every rank (healthy or dead) must call this at the same point of each
    level.  ``pending`` is this rank's unexpanded fringe shard (empty when
    healthy); ``owner_of`` maps vertices to primary owners, or ``None`` in
    broadcast mode (unknown mapping), where replicas have already expanded
    the full fringe against their copies and only coverage is checked.

    Each round costs one allgather — and with failover off there is no
    round at all.  The loop's control flow depends only on globally agreed
    data (the gathered posts and the shared round budget), so all ranks
    execute the same number of collectives.
    """
    if ft is None:
        return _EMPTY
    comm = ctx.comm
    retry = _RetryRounds(ft)
    gathered = []
    pending = np.asarray(pending, dtype=np.int64)
    while True:
        posts = yield from comm.allgather((ft.self_dead, pending))
        retry.announce(is_dead for is_dead, _ in posts)
        shards = [
            (q, np.asarray(s, dtype=np.int64)) for q, (_, s) in enumerate(posts) if len(s)
        ]
        pending = _EMPTY
        if not shards:
            break
        if owner_of is None:
            # Broadcast mode: every rank expanded the full fringe already,
            # so a dead rank's shard is covered whenever any member of its
            # replica chain is alive; nothing needs re-sending.
            for q, shard in shards:
                alive = [r for r in ft.chain_of(q) if r not in ft.dead]
                if alive:
                    if comm.rank == alive[0]:
                        ft.failovers += 1
                else:
                    ft.dropped += len(shard)
                    ft.partial = True
            break
        if not retry.another():
            ft.dropped += sum(len(shard) for _, shard in shards)
            break
        mine = []
        for _, shard in shards:
            kept, routes, _ = route_or_drop(shard, owner_of(shard), ft)
            mine.append(kept[routes == comm.rank])
        mine = np.concatenate(mine)
        retry.picked_up(mine)
        if len(mine):
            recovered = try_expand(ctx, db, mine, ft)
            if recovered is None:
                pending = mine  # this replica died too; next round re-routes
            elif len(recovered):
                gathered.append(recovered)
    return np.concatenate(gathered) if gathered else _EMPTY
