"""Scatter/gather vertex-program runtime for the Query Service.

The paper frames the Query Service as a registry of "different graph
algorithms" (ch. 6).  Beside the BFS driver (:mod:`repro.bfs.oocbfs`) this
is the second of the two engines every registered analysis runs on: a
level-synchronous scatter/gather vertex-program runtime in the
FlashGraph/Graphyti programming model (PAPERS.md), so whole families of
analyses inherit the framework's machinery — batched adjacency I/O,
replication-aware failover, the concurrent multiplexer — instead of
re-implementing it.

Programming model
-----------------

A :class:`VertexProgram` holds *replicated dense state* — one numpy array
slot per vertex id, identical on every rank, the same memory trade the
BFS visited structure makes — and advances in supersteps over an
active-vertex :class:`~repro.util.bitset.Bitset` frontier:

* **gather/scatter** — each rank walks the adjacency of the active
  vertices it is *responsible* for (the first surviving holder of each
  vertex's replica chain, so replicated partitions are never
  double-counted) and emits typed messages ``(dst, src, value)`` along
  the stored edges;
* **combine** — messages are numpy-typed triplet arrays, merged with a
  vectorized combiner (``add``/``min``/``max``) into one dense value
  array per superstep.  Combination is *canonical*: all posted triplets
  are sorted by ``(dst, src)`` before reduction, so the result is
  bit-identical regardless of each backend's storage order, of scan
  interleaving under the concurrent multiplexer, and of which replica
  served a shard after a failover;
* **apply** — every rank applies the combined messages to its replicated
  state identically, producing the next frontier with no further
  communication (one collective per superstep in the healthy case).

Access plans, inherited from the BFS work:

* a **sparse** frontier is fetched in batch: programs that need
  per-source values walk ``GraphDB.scan_adjacency(candidates)`` (grDB
  sweeps the candidates' chains level by level, every block once;
  BerkeleyDB walks its leaf chain; MySQL plans range statements), and
  source-independent programs (``needs_source = False``) go through
  :func:`~repro.bfs.failover.try_expand` / ``expand_fringe`` — the exact
  batched path of top-down BFS;
* a **dense** frontier switches to one storage-order sweep per rank —
  the bottom-up BFS plan — through
  :func:`repro.bfs.rankprog.adjacency_source`, which also makes the
  sweep *shareable*: under ``query_many`` the multiplexer arms the
  :class:`~repro.services.sharedscan.ScanBoard` and concurrent analytics
  and bottom-up BFS levels are all served from one device pass.  The
  switch is the frontier-count half of the direction controller's
  hysteresis: sweep when ``|frontier| * dense_beta >= num_vertices``.

Failover is :mod:`repro.bfs.failover`'s protocol — each superstep is one
:func:`~repro.bfs.failover.serve_once` over the active set, as a pull level
is over the unvisited vertices: the message exchange doubles as the death
announcement; when a device dies mid-scan its posts are void and bounded
retry rounds re-scan the orphaned share on the next surviving chain
members.

Four plug-ins ship on the runtime — PageRank (iterate until
convergence), weakly-connected components, k-hop ego-net extraction, and
triangle/wedge counting — registered on every
:class:`~repro.services.query.QueryService` by
:func:`register_vertex_programs`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..bfs.direction import BOTTOM_UP
from ..bfs.failover import FaultTolerance, is_down, route_or_drop, serve_once, try_expand
from ..bfs.rankprog import RankResult, level_mark, span, sweep
from ..graphdb.interface import AdjacencyBatch
from ..util.bitset import Bitset
from ..util.errors import ConfigError

__all__ = [
    "VertexProgram",
    "VPConfig",
    "VPRankResult",
    "vertexprog_program",
    "PageRankProgram",
    "ComponentsProgram",
    "EgoNetProgram",
    "triangle_count_program",
    "register_vertex_programs",
    "make_vp_generator",
    "vp_report",
    "VP_ANALYSES",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: Sweep when ``|frontier| * DENSE_BETA >= num_vertices`` — the same shape
#: as the direction controller's switch-back threshold (Beamer's ``n/beta``
#: with a smaller beta: a sweep only needs ~1/4 of vertices active to beat
#: per-vertex random fetches, because it pays no per-vertex seek).
DENSE_BETA = 4.0

#: Largest id space a vertex program runs on: ids go on the wire as int32,
#: and the combine's packed sort key needs ``bits(n - 1) + bits(m - 1) <= 63``.
MAX_VP_VERTICES = np.iinfo(np.int32).max

SPARSE = "sparse"
DENSE = "dense"

_COMBINERS = {
    "add": (np.add, 0.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


@dataclass(frozen=True)
class VPConfig:
    """One vertex-program run (the analytics analogue of ``BFSConfig``)."""

    #: Vertex-id space size (ids in ``[0, num_vertices)``); sizes the state
    #: arrays and the frontier bitset.  At most :data:`MAX_VP_VERTICES`.
    num_vertices: int
    #: Vertex-granularity declustering with a global owner map?  Without
    #: one (edge round-robin) every rank scans its own local slice of each
    #: active vertex's adjacency — correct for additive and min/max
    #: combiners because each stored entry exists on exactly one rank.
    owner_known: bool = True
    #: Fault-tolerance knobs; ``None`` disables the failover protocol (a
    #: device death then propagates, exactly like BFS without ``ft``).
    ft: FaultTolerance | None = None
    #: Hard superstep bound (programs usually converge much earlier).
    max_supersteps: int = 200
    #: Dense-frontier sweep threshold (see :data:`DENSE_BETA`).
    dense_beta: float = DENSE_BETA
    #: Forced per-superstep access-plan schedule for tests/ablations:
    #: entry ``i`` is the mode of superstep ``i + 1`` (``"sparse"`` /
    #: ``"dense"``); supersteps past the end repeat the last entry.
    schedule: tuple[str, ...] | None = None
    #: Yield a :class:`~repro.bfs.rankprog.LevelMark` per superstep for the
    #: concurrent multiplexer (never under a bare Scheduler run).
    level_marks: bool = False

    def __post_init__(self):
        if self.num_vertices <= 0:
            raise ConfigError("vertex program needs a positive num_vertices")
        if self.num_vertices > MAX_VP_VERTICES:
            raise ConfigError(
                f"vertex program ids travel as int32: num_vertices "
                f"{self.num_vertices} exceeds {MAX_VP_VERTICES}"
            )
        if self.schedule is not None:
            for m in self.schedule:
                if m not in (SPARSE, DENSE):
                    raise ConfigError(f"unknown access mode {m!r} in schedule")


@dataclass
class VPRankResult(RankResult):
    """Per-rank outcome of one vertex-program run.

    ``result`` is computed from replicated state, so it is identical on
    every rank; the service cross-checks anyway.
    """

    result: object = None
    supersteps: int = 0
    #: Messages combined across all supersteps (triplets posted).
    messages: int = 0
    #: Supersteps served by a dense storage-order sweep.
    sweeps: int = 0
    #: Access mode chosen per superstep ("sparse"/"dense"); rank-uniform.
    modes: list = field(default_factory=list)


class VertexProgram(abc.ABC):
    """Contract for one analysis on the scatter/gather runtime.

    State lives in numpy arrays sized ``num_vertices`` (replicated per
    rank); all hooks are vectorized and **deterministic** — they run
    identically on every rank, which is what lets the runtime keep state
    replicated with one collective per superstep.
    """

    name: str = "abstract"
    #: Message value dtype.
    msg_dtype = np.float64
    #: Combiner: ``"add"`` | ``"min"`` | ``"max"``.
    combine: str = "add"
    #: Do message values depend on the source vertex's state/degree?
    #: ``False`` lets a sparse superstep use the flat ``expand_fringe``
    #: batch path (values must then be per-superstep constants, and the
    #: combiner must be ``min``/``max`` so duplicates are harmless).
    needs_source: bool = True

    @abc.abstractmethod
    def init(self, n: int) -> np.ndarray:
        """Allocate state and return the initial active vertex ids."""

    @abc.abstractmethod
    def apply(self, combined: np.ndarray, has_msg: np.ndarray, superstep: int):
        """Fold one superstep's combined messages into the state.

        Returns ``(next_active_ids, done)``; the runtime additionally
        stops on an empty frontier or at ``max_supersteps``.
        """

    @abc.abstractmethod
    def finalize(self) -> object:
        """Build the (rank-uniform) analysis result from final state."""

    def edge_messages(self, batch, superstep: int):
        """Scatter along a batch of stored edges: ``(dsts, srcs, values)``.

        Called once per scanned :class:`~repro.graphdb.AdjacencyBatch` of
        active vertices when ``needs_source``.  One message per stored entry
        is ``dsts = batch.neighbors``, ``srcs = np.repeat(batch.vertices,
        batch.degrees)`` and a per-vertex value repeated the same way; the
        arrays go on the wire as returned, so keep them in batch order.
        """
        raise NotImplementedError

    def constant_value(self, superstep: int) -> float:
        """Per-superstep message constant for ``needs_source=False``."""
        raise NotImplementedError


# -- the runtime -------------------------------------------------------------


def _combine_posts(posts, combiner, n: int):
    """Canonically merge posted triplet arrays into one dense value array.

    ``posts`` is a list of ``(dst, src, val)`` triples in a deterministic
    order (rank order within a round, rounds in order).  Sorting by
    ``(dst, src)`` with a stable sort before reduction makes the combined
    array independent of backend storage order and of failover re-routing;
    equal ``(dst, src)`` keys (partial adjacency slices under edge
    granularity) fall back to post order, which is rank order.

    The stable sort is two LSD passes, each one ``np.sort`` of the int64
    key ``(id << B) | post_position`` with ``B = bits(m - 1)`` for ``m``
    triplets: every key is unique, so an unstable sort yields the stable
    order, and the low ``B`` bits carry the permutation back out.  A key
    needs ``bits(n - 1) + B <= 63`` — :class:`VPConfig` bounds ``n`` by
    ``2**31 - 1`` — and a ``src`` of ``-1`` (``needs_source=False``) sorts
    first.
    """
    ufunc, identity = _COMBINERS[combiner]
    out = np.full(n, identity, dtype=np.float64)
    has = np.zeros(n, dtype=bool)
    live = [p for p in posts if len(p[0])]
    if not live:
        return out, has, 0
    dsts = np.concatenate([p[0] for p in live])
    srcs = np.concatenate([p[1] for p in live])
    vals = np.concatenate([p[2] for p in live]).astype(np.float64)
    m = len(dsts)
    bits = max(1, (m - 1).bit_length())
    mask = (1 << bits) - 1
    pos = np.arange(m, dtype=np.int64)
    order = np.sort((srcs.astype(np.int64) << bits) | pos) & mask
    order = order[np.sort((dsts[order].astype(np.int64) << bits) | pos) & mask]
    dsts, vals = dsts[order], vals[order]
    ufunc.at(out, dsts, vals)
    has[dsts] = True
    return out, has, len(dsts)


def _pick_mode(cfg: VPConfig, superstep: int, active_count: int) -> str:
    if cfg.schedule is not None:
        return cfg.schedule[min(superstep - 1, len(cfg.schedule) - 1)]
    return DENSE if active_count * cfg.dense_beta >= cfg.num_vertices else SPARSE


def _scan_messages(ctx, db, prog: VertexProgram, todo: np.ndarray, mode: str, superstep: int, ft):
    """Gather/scatter one rank's share of a superstep.

    Returns ``(post, ok)`` where ``post = (dst, src, val)`` triplet arrays;
    ``ok=False`` means the device died (or the attempt blew the failover
    timeout) mid-scan and the partial accumulation was discarded.  CPU is
    charged per adjacency entry processed, exactly like the bottom-up
    claim scan (both are :func:`~repro.bfs.rankprog.sweep`).
    """
    empty_post = (_EMPTY, _EMPTY, np.empty(0, dtype=np.float64))
    if not len(todo):
        return empty_post, True
    if not prog.needs_source:
        # Flat batch expansion (the top-down BFS plan): values are
        # per-superstep constants, so only destinations matter.
        dsts = try_expand(ctx, db, todo, ft)
        if dsts is None:
            return empty_post, False
        vals = np.full(len(dsts), prog.constant_value(superstep), dtype=np.float64)
        return (dsts, np.full(len(dsts), -1, dtype=np.int64), vals), True

    posts: list[tuple] = []

    def scatter(batch):
        posts.append(prog.edge_messages(batch, superstep))
        return len(batch.neighbors)

    # Only a dense superstep is worth a shared whole-store pass; a sparse
    # one reads its candidates' lists and stays off the board.
    _, ok = sweep(ctx, db, todo, scatter, ft, shared=mode == DENSE)
    if not ok or not posts:
        return empty_post, ok
    dtypes = (np.int64, np.int64, np.float64)
    return tuple(np.concatenate(c).astype(t, copy=False) for c, t in zip(zip(*posts), dtypes)), True


def vertexprog_program(ctx, db, cfg: VPConfig, prog: VertexProgram, owner_of=None):
    """Rank program (generator) running one vertex program to completion.

    Run on every back-end rank through ``QueryService._run_on_backends``
    (or interleaved by the concurrent multiplexer when
    ``cfg.level_marks``); returns a :class:`VPRankResult`.  ``owner_of``
    maps a vertex array to owner ranks when ``cfg.owner_known``.
    """
    comm = ctx.comm
    rank = comm.rank
    n = cfg.num_vertices
    if prog.combine not in _COMBINERS:
        raise ConfigError(f"unknown combiner {prog.combine!r}")
    if not prog.needs_source and prog.combine == "add":
        raise ConfigError(
            "needs_source=False requires a min/max combiner (flat batch "
            "expansion cannot attribute additive values to sources)"
        )
    with span(ctx, db, cfg.ft, VPRankResult()) as (result, ft):
        if prog.combine == "add" and not cfg.owner_known and ft is not None and ft.replication > 1:
            raise ConfigError(
                "additive vertex programs cannot run on replicated owner-unknown "
                "declustering: every stored copy of an edge would be counted"
            )
        active = np.asarray(prog.init(n), dtype=np.int64)
        frontier = Bitset(n)
        if len(active):
            frontier.set_many(active)

        aborted = False
        if cfg.level_marks:
            # Pre-admission mark (no comm before it): lets the multiplexer
            # place this analysis in its round-robin order and predict whether
            # its first superstep runs a shareable dense sweep.
            nxt = _pick_mode(cfg, 1, frontier.count()) if len(active) else None
            aborted = yield from level_mark(result, 0, False, BOTTOM_UP if nxt == DENSE else None)

        superstep = 0
        while not aborted and len(active) and superstep < cfg.max_supersteps:
            superstep += 1
            mode = _pick_mode(cfg, superstep, frontier.count())
            result.modes.append(mode)
            if mode == DENSE:
                result.sweeps += 1

            # ``serve_once`` over the active set.  Message triplets are
            # *gathered* to rank 0 (they travel the wire once), deaths ride a
            # tiny flag broadcast, and the canonical combine runs once at the
            # root before the dense result is broadcast back — the same
            # compress-before-broadcast shape as an allreduce, at a fraction
            # of an allgather's bytes.  Owner unknown (edge granularity):
            # every rank scans its own stored slice of the whole active set,
            # and the loop never retries — the slices are disjoint by storage,
            # not by routing.
            posted: list[tuple] = []  # (rank, post) of every round, at rank 0 only

            def scatter(todo):
                (dsts, srcs, vals), _ = _scan_messages(ctx, db, prog, todo, mode, superstep, ft)
                return dsts.astype(np.int32), srcs.astype(np.int32), vals

            def exchange(post):
                gathered = yield from comm.gather((is_down(ft), post), root=0)
                flags = None
                if rank == 0:
                    flags = [down for down, _ in gathered]
                    posted.extend(enumerate(post for _, post in gathered))
                return (yield from comm.bcast(flags, root=0))

            down = yield from serve_once(
                ctx, ft, active, owner_of if cfg.owner_known else None, scatter, exchange
            )
            # What a rank down at the end posted was scanned again by a live holder.
            posts = [post for q, post in posted if not down[q]]

            # Canonical combine at the root, dense result broadcast to all.
            # The broadcast object is shared in-process; ``apply`` hooks treat
            # ``combined``/``has_msg`` as read-only (the contract), so sharing
            # is safe and costs one dense array on the wire instead of every
            # posted triplet ever reaching every rank.
            packed = _combine_posts(posts, prog.combine, n) if rank == 0 else None
            combined, has_msg, nmsgs = yield from comm.bcast(packed, root=0)
            result.messages += nmsgs
            active, done = prog.apply(combined, has_msg, superstep)
            active = np.asarray(active, dtype=np.int64)
            frontier.clear_all()
            if len(active):
                frontier.set_many(active)
            result.supersteps = superstep
            done = bool(done) or not len(active) or superstep >= cfg.max_supersteps
            if cfg.level_marks:
                nxt = _pick_mode(cfg, superstep + 1, frontier.count()) if not done else None
                sweeps_next = BOTTOM_UP if nxt == DENSE else None
                if (yield from level_mark(result, superstep, done, sweeps_next)):
                    break
            if done:
                break

        result.result = None if aborted else prog.finalize()
    return result


# -- plug-ins ---------------------------------------------------------------


class PageRankProgram(VertexProgram):
    """PageRank by power iteration, run until global L1 convergence.

    Superstep 1 is a degree census (each responsible rank reports the
    stored out-degree of its vertices — additive, so edge-granularity
    slices sum correctly); a vertex is *present* iff it has stored
    adjacency, which the ingestion service guarantees for every endpoint
    (both directions of each undirected edge are stored).  Iterations
    then scatter ``rank/degree`` along every stored edge and converge
    when the L1 delta drops below ``tol``.
    """

    name = "pagerank"
    combine = "add"
    needs_source = True

    def __init__(self, damping: float = 0.85, tol: float = 1e-9, max_iters: int = 100):
        if not 0.0 < damping < 1.0:
            raise ConfigError(f"damping must be in (0, 1), got {damping}")
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iters = int(max_iters)
        self.degree: np.ndarray | None = None
        self.present: np.ndarray | None = None
        self.ranks: np.ndarray | None = None
        self.iterations = 0
        self.delta = np.inf
        self._n = 0

    def init(self, n: int) -> np.ndarray:
        self._n = n
        return np.arange(n, dtype=np.int64)  # census touches every id

    def edge_messages(self, batch, superstep):
        vs, degrees = batch.vertices, batch.degrees
        if superstep == 1:  # degree census: one additive message to self
            return vs, vs, degrees.astype(np.float64)
        share = self.ranks[vs] / self.degree[vs]
        return batch.neighbors, np.repeat(vs, degrees), np.repeat(share, degrees)

    def apply(self, combined, has_msg, superstep):
        if superstep == 1:
            self.degree = np.where(has_msg, combined, 0.0)
            self.present = self.degree > 0
            n_eff = int(self.present.sum())
            self.ranks = np.where(self.present, 1.0 / max(n_eff, 1), 0.0)
            return np.flatnonzero(self.present), n_eff == 0
        n_eff = int(self.present.sum())
        new = np.where(
            self.present, (1.0 - self.damping) / n_eff + self.damping * combined, 0.0
        )
        self.delta = float(np.abs(new - self.ranks).sum())
        self.ranks = new
        self.iterations = superstep - 1
        if self.delta < self.tol or self.iterations >= self.max_iters:
            return _EMPTY, True
        return np.flatnonzero(self.present), False

    def finalize(self):
        order = np.argsort(-self.ranks, kind="stable")
        top = [
            (int(v), float(self.ranks[v]))
            for v in order[:20]
            if self.present[v]
        ]
        return {
            "num_vertices": int(self.present.sum()) if self.present is not None else 0,
            "iterations": self.iterations,
            "delta": self.delta,
            "top": top,
            "ranks": self.ranks,
            "present": self.present,
        }


class ComponentsProgram(VertexProgram):
    """Weakly-connected components by min-label propagation.

    Superstep 1 scatters every vertex's own id along its stored edges;
    afterwards only vertices whose label just dropped re-scatter, so the
    frontier shrinks from all-present to the contested boundary — the
    access pattern that exercises the dense-to-sparse switch.
    """

    name = "components"
    combine = "min"
    needs_source = True

    def __init__(self):
        self.labels: np.ndarray | None = None
        self.present: np.ndarray | None = None
        self.rounds = 0
        self._n = 0

    def init(self, n: int) -> np.ndarray:
        self._n = n
        self.labels = np.arange(n, dtype=np.int64).astype(np.float64)
        self.present = np.zeros(n, dtype=bool)
        return np.arange(n, dtype=np.int64)

    def edge_messages(self, batch, superstep):
        vs, degrees = batch.vertices, batch.degrees
        return batch.neighbors, np.repeat(vs, degrees), np.repeat(self.labels[vs], degrees)

    def apply(self, combined, has_msg, superstep):
        self.rounds = superstep
        if superstep == 1:
            # A vertex is present iff it has stored adjacency: with both
            # directions stored, every endpoint receives at least one
            # message (its neighbor's label).
            self.present = has_msg.copy()
        improved = has_msg & (combined < self.labels)
        self.labels = np.where(improved, combined, self.labels)
        return np.flatnonzero(improved), False

    def finalize(self):
        labels = self.labels[self.present].astype(np.int64)
        uniq, counts = np.unique(labels, return_counts=True)
        return {
            "num_components": int(len(uniq)),
            "sizes": sorted((int(c) for c in counts), reverse=True),
            "rounds": self.rounds,
            # Arrays, like PageRank's ranks: every rank finalizes, one caller
            # in many asks for the table (``_shape_components`` builds it).
            "labels": self.labels.astype(np.int64),
            "present": self.present,
        }


class EgoNetProgram(VertexProgram):
    """k-hop ego-net extraction: every vertex within ``k`` hops of a source.

    Message values are per-superstep constants (the hop count), so sparse
    supersteps ride the flat ``expand_fringe`` batch path with a ``min``
    combiner — the closest analytics analogue of a top-down BFS level.
    """

    name = "ego-net"
    combine = "min"
    needs_source = False

    def __init__(self, source: int, hops: int):
        self.source = int(source)
        self.hops = int(hops)
        if self.hops < 0:
            raise ConfigError(f"hops must be >= 0, got {self.hops}")
        self.level: np.ndarray | None = None

    def init(self, n: int) -> np.ndarray:
        if not 0 <= self.source < n:
            raise ConfigError(f"source {self.source} outside id space [0, {n})")
        self.level = np.full(n, -1, dtype=np.int64)
        self.level[self.source] = 0
        return _EMPTY if self.hops == 0 else np.array([self.source], dtype=np.int64)

    def constant_value(self, superstep: int) -> float:
        return float(superstep)

    def apply(self, combined, has_msg, superstep):
        fresh = has_msg & (self.level < 0)
        self.level[fresh] = superstep
        nxt = np.flatnonzero(fresh)
        return nxt, superstep >= self.hops

    def finalize(self):
        members = np.flatnonzero(self.level >= 0)
        per_level = [
            int((self.level == lev).sum()) for lev in range(int(self.level.max()) + 1)
        ]
        return {
            "source": self.source,
            "hops": self.hops,
            "num_vertices": int(len(members)),
            "per_level": per_level,
            "vertices": members,
        }


def triangle_count_program(ctx, db, cfg: VPConfig, owner_of=None):
    """Rank program: exact triangle and wedge counts over the stored graph.

    Not a scatter/gather computation — wedge closure needs adjacency
    *membership*, not combinable scalars — but built from the runtime's
    parts: :func:`~repro.bfs.failover.serve_once` (each vertex's list is
    read by its first surviving chain holder, with bounded re-scan rounds on
    a death, and a wholly dead chain flags the count ``partial``), the
    storage-order sweep (shareable under the concurrent multiplexer),
    and one alltoall routing wedge-closure checks to the rank holding the
    queried vertex's adjacency.  Each triangle {a, b, c} yields exactly
    three wedge checks (one centered at each corner), so ``triangles =
    closed / 3``; wedges are ``sum_v C(deg_v, 2)``.  Requires an owner
    map (vertex-granularity declustering).
    """
    comm = ctx.comm
    size = comm.size
    if not cfg.owner_known:
        raise ConfigError("triangle counting needs an owner map (vertex granularity)")
    with span(ctx, db, cfg.ft, VPRankResult()) as (result, ft):
        aborted = cfg.level_marks and (yield from level_mark(result, 0, False, BOTTOM_UP))

        # Phase 1: one storage-order sweep per responsible rank (``serve_once``
        # over its local vertices), extracting each vertex's neighbor set
        # (cached for phase 2 membership tests) and its wedge list.
        adj: dict[int, np.ndarray] = {}
        wedges = 0
        checks: list[np.ndarray] = []  # (center excluded) wedge endpoints (u, w)

        def read(todo):
            nonlocal wedges
            pieces = []  # a list may arrive in pieces: count, then group

            def collect(batch):
                pieces.append(batch)
                return len(batch.neighbors)

            if len(todo) and sweep(ctx, db, todo, collect, ft, timed=False)[1]:
                for v, neighbors in AdjacencyBatch.concat(pieces).grouped():
                    nbrs = np.unique(neighbors.astype(np.int64))
                    nbrs = nbrs[nbrs != v]  # self-loops close no wedges
                    adj[v] = nbrs
                    k = len(nbrs)
                    wedges += k * (k - 1) // 2
                    if k >= 2:
                        iu, iw = np.triu_indices(k, 1)
                        checks.append(np.column_stack([nbrs[iu], nbrs[iw]]))
            if is_down(ft):
                # A dead rank's cached neighbor sets are unreadable in phase 2
                # and its share re-routes wholesale, so its *entire*
                # accumulation is void: the next surviving chain member
                # re-scans every vertex routed to it.
                adj.clear()
                wedges = 0
                checks.clear()

        def exchange(_):
            result.supersteps += 1
            return (yield from comm.allgather(is_down(ft)))

        if not aborted:
            yield from serve_once(
                ctx,
                ft,
                lambda: np.asarray(db.local_vertices(), dtype=np.int64),
                owner_of,
                read,
                exchange,
            )

        if cfg.level_marks and not aborted:
            aborted = yield from level_mark(result, result.supersteps, False)

        closed = 0
        if not aborted:
            # Phase 2: route each wedge (u, w) to the rank responsible for u's
            # adjacency under the final dead set; that rank answers membership
            # of w from its cached neighbor sets.
            pairs = (
                np.vstack(checks) if checks else np.zeros((0, 2), dtype=np.int64)
            )
            pairs, routes, _ = route_or_drop(pairs, owner_of(pairs[:, 0]), ft)
            parts = [pairs[routes == q] for q in range(size)]
            received = yield from comm.alltoall(parts)
            mine = 0
            probes = 0
            for batch in received:
                batch = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
                if not len(batch):
                    continue
                batch = batch[np.argsort(batch[:, 0], kind="stable")]
                uniq, starts = np.unique(batch[:, 0], return_index=True)
                bounds = np.append(starts, len(batch))
                for i, u in enumerate(uniq):
                    ws = batch[bounds[i] : bounds[i + 1], 1]
                    nbrs = adj.get(int(u))
                    if nbrs is None or not len(nbrs):
                        probes += len(ws)
                        continue
                    # ``nbrs`` is sorted (np.unique): binary-search membership,
                    # charged one comparison per bisection step.
                    probes += len(ws) * (int(np.log2(len(nbrs))) + 1)
                    idx = np.searchsorted(nbrs, ws)
                    valid = idx < len(nbrs)
                    mine += int((nbrs[idx[valid]] == ws[valid]).sum())
            ctx.compute(probes * db.cpu.compare_seconds)
            closed, wedges = yield from comm.allreduce(
                (mine, wedges), lambda a, b: (a[0] + b[0], a[1] + b[1])
            )
            result.supersteps += 1

        if cfg.level_marks and not aborted:
            yield from level_mark(result, result.supersteps, True)

        result.result = None if aborted else {
            "triangles": closed // 3,
            "wedges": wedges,
            "closed_checks": closed,
        }
    return result


# -- Query Service integration ----------------------------------------------


#: Drain-capable program factories: name -> (params -> generator factory).
#: Used by ``QueryService`` both for solo ``query()`` runs and to build
#: level-marked generators for ``query_many`` drains.
PROGRAM_FACTORIES = {
    "pagerank": lambda params: lambda: PageRankProgram(
        damping=params.get("damping", 0.85),
        tol=params.get("tol", 1e-9),
        max_iters=params.get("max_iters", 100),
    ),
    "components": lambda params: lambda: ComponentsProgram(),
    "ego-net": lambda params: lambda: EgoNetProgram(
        source=params["source"], hops=params.get("hops", 2)
    ),
}


def make_vp_generator(service, analysis: str, params: dict, level_marks: bool):
    """Build ``gen(ctx, q)`` producing one back-end rank's generator.

    Shared by the solo path and the concurrent multiplexer; raises
    :class:`ConfigError` for unknown analyses or when nothing is stored.
    """
    n = service.num_vertices
    if n is None:
        raise ConfigError(f"{analysis!r} needs the vertex-id space size: nothing is stored")
    cfg = VPConfig(
        num_vertices=n,
        owner_known=service.declusterer.owner_known,
        ft=service._ft(),
        dense_beta=params.get("dense_beta", DENSE_BETA),
        schedule=tuple(params["schedule"]) if params.get("schedule") else None,
        max_supersteps=params.get("max_supersteps", 200),
        level_marks=level_marks,
    )
    owner_of = service._owner_of()
    if analysis == "triangles":
        return lambda ctx, q: triangle_count_program(ctx, service.dbs[q], cfg, owner_of)
    factory = PROGRAM_FACTORIES[analysis](params)
    return lambda ctx, q: vertexprog_program(ctx, service.dbs[q], cfg, factory(), owner_of)


def vp_report(analysis: str, params: dict, results: list[VPRankResult], seconds: float, **fields):
    """Aggregate per-rank results into a ``QueryReport``.

    The payload is computed from replicated state, so it must be
    bit-identical on every rank; the cross-check hashes the raw payload
    (ndarrays included) and raises on any divergence.  ``seconds`` and
    ``fields`` are :func:`~repro.services.query.rank_report`'s.
    """
    from .query import rank_report

    digests = {_digest(r.result) for r in results}
    if len(digests) != 1:
        raise ConfigError(f"back-ends disagree on {analysis} outcome")
    shaper = RESULT_SHAPERS[analysis](params)
    raw = results[0].result
    return rank_report(
        analysis,
        results,
        seconds,
        result=shaper(raw) if (shaper and raw is not None) else raw,
        levels=max(r.supersteps for r in results),
        **fields,
    )


def _feed_digest(h, x) -> None:
    # Module-level, not a closure of _digest: a nested function that calls
    # itself is a reference cycle, one per analytics call.
    if isinstance(x, dict):
        for k in sorted(x, key=repr):
            h.update(repr(k).encode())
            _feed_digest(h, x[k])
    elif isinstance(x, np.ndarray):
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        for item in x:
            _feed_digest(h, item)
    else:
        h.update(repr(x).encode())


def _digest(obj) -> bytes:
    """Order-stable fingerprint of a rank result for agreement checks."""
    import hashlib

    h = hashlib.sha256()
    _feed_digest(h, obj)
    return h.digest()


def _shape_pagerank(params):
    def shape(raw):
        out = {
            "num_vertices": raw["num_vertices"],
            "iterations": raw["iterations"],
            "delta": raw["delta"],
            "top": raw["top"],
        }
        if params.get("return_ranks", False):
            present = np.flatnonzero(raw["present"])
            out["ranks"] = dict(zip(present.tolist(), raw["ranks"][present].tolist()))
        return out

    return shape


def _shape_components(params):
    def shape(raw):
        out = {
            "num_components": raw["num_components"],
            "sizes": raw["sizes"],
            "rounds": raw["rounds"],
        }
        # The full per-vertex table is an unbounded payload at scale;
        # callers opt in explicitly.
        if params.get("return_labels", False):
            present = np.flatnonzero(raw["present"])
            out["labels"] = dict(zip(present.tolist(), raw["labels"][present].tolist()))
        return out

    return shape


def _shape_egonet(params):
    def shape(raw):
        out = dict(raw)
        if params.get("return_vertices", True):
            out["vertices"] = [int(v) for v in raw["vertices"]]
        else:
            del out["vertices"]
        return out

    return shape


RESULT_SHAPERS = {
    "pagerank": _shape_pagerank,
    "components": _shape_components,
    "ego-net": _shape_egonet,
    "triangles": lambda params: None,
}

VP_ANALYSES = ("pagerank", "components", "ego-net", "triangles")


def register_vertex_programs(service) -> None:
    """Register the runtime-backed analytics suite on a query service."""

    def make_runner(analysis: str):
        def runner(**params) -> object:
            gen = make_vp_generator(service, analysis, params, level_marks=False)
            results = service._run_on_backends(gen)
            return vp_report(
                analysis, params, results, seconds=service.cluster.makespan
            )

        return runner

    for analysis in VP_ANALYSES:
        service.register(analysis, make_runner(analysis))
