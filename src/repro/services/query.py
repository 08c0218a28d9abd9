"""Query Service (§3.3): registry and orchestration of analyses.

Data-analysis techniques register with the service by name and run against
the stored graph through the unified GraphDB interface, with awareness of
the data distribution (vertex- vs edge-granularity).  The reference
analysis is the relationship query of §4.2 — parallel out-of-core BFS in
its level-synchronous (Algorithm 1) and pipelined (Algorithm 2) forms —
plus two further analyses as examples of the pluggable interface:
``degree`` (stored degree of given vertices) and ``neighborhood`` (k-hop
vertex count).  :func:`rank_report` folds what their rank programs return.

Queries execute on the *back-end* ranks of the cluster through a
sub-communicator; front-end ranks sit idle, exactly as in the deployment
of Figure 3.1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from ..bfs import (
    BFSConfig,
    DirectionConfig,
    FaultTolerance,
    NOT_FOUND,
    oocbfs_program,
    pipelined_bfs_program,
)
from ..bfs.failover import guard, is_down, serve_once
from ..bfs.rankprog import RankResult, span
from ..features import Features
from ..graphdb.interface import GraphDB
from ..graphdb.metadata import ExternalMetadata, InMemoryMetadata, MetadataStore, PinnedMetadata
from ..simcluster.cluster import RankContext, SimCluster
from ..simcluster.comm import SubComm
from ..util.errors import ConfigError
from .declustering import Declusterer
from .scheduler import QuerySpec, multiplex_program

__all__ = ["QueryService", "QueryReport", "DrainReport", "rank_report", "degree_program"]

#: A drain's default admission cap: queries past this many in flight wait in
#: the FIFO queue (per-query ``queue_seconds``).
MAX_INFLIGHT = 64


@dataclass
class QueryReport:
    """Aggregated outcome of one query run."""

    analysis: str
    seconds: float  # virtual makespan across back-end ranks
    result: Any
    edges_scanned: int = 0
    levels: int = 0
    #: Some adjacency was never expanded (replicas exhausted or retry budget
    #: blown): ``result`` is a lower bound, not the exact answer.
    partial: bool = False
    #: Fringe shards re-expanded on surviving replicas across all ranks.
    failovers: int = 0
    #: Back-end devices that failed (raised DeviceFailedError) mid-query.
    device_failures: int = 0
    #: Back-ends (sub-communicator indices) whose device returned a CRC-bad
    #: frame mid-query; their shards failed over like dead ranks, but the
    #: devices are alive and the façade schedules read-repair for them.
    corrupt_backends: tuple = ()
    #: Corrupt frames rewritten from clean replica data after the query
    #: (read-repair).  0 when nothing was corrupt or replication is 1.
    repairs: int = 0
    #: Total fringe vertices dropped because no replica could expand them.
    dropped_vertices: int = 0
    #: Direction chosen per BFS level when the hybrid ran ("top-down" /
    #: "bottom-up"); empty for pure top-down searches.
    directions: tuple = ()
    #: Adjacency entries examined by bottom-up claim checks (all ranks).
    edges_examined: int = 0
    #: Adjacency entries skipped by bottom-up early exit (all ranks).
    edges_skipped: int = 0
    #: The query blew its virtual-seconds deadline and was cut off at a
    #: level boundary; ``result``/``partial`` describe what it got done.
    deadline_exceeded: bool = False
    #: Fairness tag the query was scheduled under (concurrent drains only).
    tenant: str = "default"
    #: Virtual seconds spent queued before admission (concurrent drains
    #: only; 0 when the query ran solo or was admitted immediately).
    queue_seconds: float = 0.0
    #: Streaming deployments: the snapshot id (batch seq) the query was
    #: admitted at.  The answer reflects exactly the batches published up
    #: to this id, however many more landed while it ran.  ``None`` when
    #: the deployment is not streaming.
    snapshot_seq: int | None = None

    @property
    def edges_per_second(self) -> float:
        return self.edges_scanned / self.seconds if self.seconds > 0 else 0.0


@dataclass
class DrainReport:
    """Outcome of one concurrent drain: per-query reports plus totals."""

    #: One :class:`QueryReport` per submitted query, in submission order.
    #: Each report's ``seconds`` is that query's own admission-to-completion
    #: latency (max over ranks), not the drain makespan.
    queries: list
    #: Virtual makespan of the whole drain across back-end ranks.
    seconds: float = 0.0
    #: Scheduling rounds the multiplexer ran (max over ranks).
    rounds: int = 0
    #: Device passes performed for shared sweeps, summed over ranks.
    shared_passes: int = 0
    #: Shared sweeps served from a published pass (device passes avoided).
    shared_served: int = 0
    #: Corrupt frames healed by read-repair after the drain.
    repairs: int = 0
    #: Stream batches applied on every back-end mid-drain (in-drain ingest
    #: via ``MSSG.query_many(stream_batches=...)``); 0 otherwise.
    stream_batches: int = 0

    @property
    def edges_scanned(self) -> int:
        return sum(r.edges_scanned for r in self.queries)

    @property
    def edges_per_second(self) -> float:
        return self.edges_scanned / self.seconds if self.seconds > 0 else 0.0


class QueryService:
    """Runs registered analyses on the back-end partition of a cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        dbs: list[GraphDB],
        declusterer: Declusterer,
        features: Features,
        num_frontends: int = 0,
        fault_tolerant: bool | None = None,
        attempt_timeout: float | None = None,
    ):
        if cluster.nranks < num_frontends + len(dbs):
            raise ConfigError("cluster too small for the requested service layout")
        self.cluster = cluster
        self.dbs = dbs
        self.declusterer = declusterer
        self.num_frontends = num_frontends
        #: Copies of each partition, taken from the (possibly replicated)
        #: declusterer the graph was ingested with.
        self.replication = declusterer.replication
        # Default: run the failover protocol exactly when the data is
        # replicated.  Forcing it on with replication=1 still converts
        # device deaths into flagged partial results instead of crashes.
        self.fault_tolerant = (
            self.replication > 1 if fault_tolerant is None else fault_tolerant
        )
        self.attempt_timeout = attempt_timeout
        #: Read once per query or drain, never per edge or block:
        #: ``direction_opt`` / ``shared_scans`` (plan defaults a query / a
        #: drain may override) and ``checksums`` (whether ``visited="external"``
        #: frames its scratch device with CRCs).
        self.features = features
        #: Queries accepted by :meth:`submit`, awaiting the next :meth:`drain`.
        self._submitted: list[QuerySpec] = []
        #: Vertex-id space size ``n``, every stored id in ``[0, n)``: recorded
        #: at ingest time and, when a deployment reopens, from what its stores
        #: and recovered deltas hold.  ``None``: nothing stored.  BFS and the
        #: vertex programs size from it.
        self.num_vertices: int | None = None
        #: Endpoints (two per edge) ingested through the façade or held by
        #: reopened stores.
        self.endpoints_ingested = 0
        #: Back-end indices recorded dead by a rebalance pass.  Seeded into
        #: every query's fault state so routing skips them outright instead
        #: of rediscovering the deaths through failover rounds.
        self.known_dead: set[int] = set()
        self._visited_seq = 0
        self._analyses: dict[str, Callable] = {}
        self.register("bfs", partial(self._bfs_analysis, oocbfs_program))
        self.register("pipelined-bfs", partial(self._bfs_analysis, pipelined_bfs_program))
        self.register("degree", self._degree_analysis)
        self.register("neighborhood", self._neighborhood_analysis)
        # Extension analyses live in their own module (runtime import to
        # avoid a cycle: analyses.py needs QueryReport from this module).
        from .analyses import register_extensions
        from .vertexprog import register_vertex_programs

        register_extensions(self)
        register_vertex_programs(self)

    # -- registry -----------------------------------------------------------

    def register(self, name: str, runner: Callable, override: bool = False) -> None:
        """Register an analysis: ``runner(**params) -> QueryReport``.

        Duplicate names raise :class:`ConfigError` unless ``override=True``
        is passed explicitly — a plug-in must not be able to shadow a
        built-in (or another plug-in) by accident.
        """
        if name in self._analyses and not override:
            raise ConfigError(
                f"analysis {name!r} is already registered; "
                "pass override=True to replace it"
            )
        self._analyses[name] = runner

    def analyses(self) -> list[str]:
        return sorted(self._analyses)

    def close(self) -> None:
        """Drop the registry.  Its runners are bound methods and closures of
        this service — a reference cycle that would keep a closed
        deployment's stores, caches and tail memos alive until the cycle
        collector's next full pass, so a process that opens deployments in
        a loop would hold several at once."""
        self._analyses.clear()

    def query(self, analysis: str, **params) -> QueryReport:
        runner = self._analyses.get(analysis)
        if runner is None:
            raise ConfigError(
                f"no analysis {analysis!r} registered; available: {self.analyses()}"
            )
        return runner(**params)

    # -- execution plumbing ----------------------------------------------------

    def _backend_ranks(self) -> list[int]:
        F = self.num_frontends
        return list(range(F, F + len(self.dbs)))

    def _run_on_backends(self, fn) -> list[Any]:
        """Run the rank generator ``fn(ctx, q)`` on each back-end ``q``
        (front-ends idle), using a sub-communicator so the analysis sees
        dense ranks 0..P-1."""
        backend_ranks = self._backend_ranks()
        group = set(backend_ranks)

        def program(ctx):
            if ctx.rank not in group:
                return None
            subcomm = SubComm(ctx.comm, backend_ranks)
            sub_ctx = RankContext(subcomm.rank, subcomm.size, ctx.node, subcomm)
            result = yield from fn(sub_ctx, backend_ranks.index(ctx.rank))
            return result

        raw = self.cluster.run(program)
        return [raw[r] for r in backend_ranks]

    # -- built-in analyses ---------------------------------------------------------

    def _visited_search(self, ctx, kind: str, seq: int, search):
        """Rank generator: ``search(visited)`` over a fresh level map.

        An external map's scratch device lives exactly as long as the
        search: it is dropped, file and all, when the search returns or
        raises (or is closed), at no virtual cost.
        """
        visited = self._make_visited(ctx, kind, seq)
        try:
            return (yield from search(visited))
        finally:
            if kind == "external":
                ctx.node.drop_disk(f"visited-{seq}")

    def _make_visited(self, ctx, kind: str, seq: int) -> MetadataStore:
        n = self.num_vertices
        if kind == "memory":
            # The dense array costs 4 bytes per id to fill, per query and
            # rank; the dict a probe per touched vertex.  A query touches at
            # most the stored vertices, and no more are stored than endpoints
            # were ingested: an id space larger than that is sparse, and the
            # dict is both cheaper and bounded there.  Neither charges the
            # clock, so the choice moves the wall clock alone.
            if n and n <= self.endpoints_ingested:
                return PinnedMetadata(n)
            return InMemoryMetadata()
        if kind == "external":
            # A fresh scratch file per query: level marks must not leak
            # between searches.
            dev = ctx.node.disk(f"visited-{seq}")
            if self.features.checksums:
                from ..storage.integrity import wrap_device

                dev = wrap_device(dev)
            return ExternalMetadata(dev)
        raise ConfigError(f"unknown visited structure {kind!r}")

    def _ft(self) -> FaultTolerance | None:
        if not self.fault_tolerant:
            return None
        # The declusterer's chain map — rotational, or repaired by a
        # rebalance pass — is what every shard routes by.
        return FaultTolerance(
            replication=self.replication,
            attempt_timeout=self.attempt_timeout,
            chains=self.declusterer.chain_map(),
            known_dead=frozenset(self.known_dead),
        )

    def _direction(self, direction_opt, direction_schedule) -> DirectionConfig | None:
        """Build the hybrid's config for one query (``None`` = top-down).

        The hybrid needs the vertex->owner map (to know whose adjacency to
        pull) and the id-space size (to size the bitmap); without either —
        or when turned off — BFS runs the paper's pure top-down search.
        """
        enabled = self.features.direction_opt if direction_opt is None else direction_opt
        n = self.num_vertices
        if not enabled or not self.declusterer.owner_known or not n:
            return None
        return DirectionConfig(
            num_vertices=n,
            schedule=tuple(direction_schedule) if direction_schedule else None,
        )

    def _owner_of(self):
        """The vertex->owner map rank programs route by (``None``: unknown)."""
        return self.declusterer.owner_of if self.declusterer.owner_known else None

    def _bfs_config(self, source, dest, max_levels, direction, marks=False) -> BFSConfig:
        """One search's config, solo (:meth:`_run_bfs`) or drained."""
        return BFSConfig(
            source=int(source),
            dest=int(dest),
            num_vertices=self.num_vertices,
            owner_known=self.declusterer.owner_known,
            max_levels=max_levels,
            ft=self._ft(),
            direction=direction,
            level_marks=marks,
        )

    def _run_bfs(
        self,
        program,
        source,
        dest,
        visited="memory",
        max_levels=64,
        direction_opt=None,
        direction_schedule=None,
        **alg_kw,
    ) -> list:
        """Run one search on the back-ends; what ``program`` returned per rank.

        ``program(ctx, db, cfg, visited, owner_of=..., **alg_kw)`` is
        Algorithm 1 or 2, or a rank program built around one of them; the
        per-query parameters are the same for all of them.
        """
        cfg = self._bfs_config(
            source, dest, max_levels, self._direction(direction_opt, direction_schedule)
        )
        owner_of = self._owner_of()
        self._visited_seq += 1
        seq = self._visited_seq

        return self._run_on_backends(
            lambda ctx, q: self._visited_search(
                ctx,
                visited,
                seq,
                lambda v: program(ctx, self.dbs[q], cfg, v, owner_of=owner_of, **alg_kw),
            )
        )

    # -- concurrent multi-query serving ---------------------------------------

    def submit(
        self,
        source=-1,
        dest=-1,
        tenant: str = "default",
        deadline: float | None = None,
        visited: str = "memory",
        max_levels: int = 64,
        direction_opt: bool | None = None,
        direction_schedule=None,
        analysis: str = "bfs",
        params: dict | None = None,
    ) -> int:
        """Queue one query for the next :meth:`drain`.

        The default analysis is the relationship query (``source``/``dest``
        BFS); passing ``analysis`` with one of the drain-capable vertex
        programs ("pagerank", "components") queues an analytics query
        instead, parameterized by ``params``, and it interleaves with BFS
        under the same admission control.  Returns the query id — the index
        of its report in the drain's ``queries`` list.  ``deadline`` is a
        virtual-seconds budget counted from admission; an expired query is
        cut off at its next level boundary and reported partial with
        ``deadline_exceeded=True``.
        """
        if analysis != "bfs":
            from .vertexprog import VP_ANALYSES

            if analysis not in VP_ANALYSES:
                raise ConfigError(
                    f"analysis {analysis!r} cannot be drained concurrently; "
                    f"available: {('bfs',) + VP_ANALYSES}"
                )
        if int(max_levels) < 0:
            raise ConfigError(f"max_levels must be >= 0, got {max_levels}")
        qid = len(self._submitted)
        self._submitted.append(
            QuerySpec(
                qid=qid,
                source=int(source),
                dest=int(dest),
                tenant=str(tenant),
                deadline=deadline,
                visited=visited,
                max_levels=int(max_levels),
                direction_opt=direction_opt,
                direction_schedule=(
                    tuple(direction_schedule) if direction_schedule else None
                ),
                analysis=analysis,
                params=dict(params) if params else None,
            )
        )
        return qid

    def drain(
        self,
        max_inflight: int | None = None,
        shared_scans: bool | None = None,
        stream_feed=None,
    ) -> DrainReport:
        """Run every submitted query to completion, interleaved level-by-level.

        All queries share one cluster run (and one sub-communicator): the
        multiplexer advances each admitted query one BFS level at a time in
        a rank-uniform round-robin over tenants, arming shared backend
        sweeps whenever at least two of a round's queries need the same
        device pass.  Answers are bit-identical to running the same queries
        back-to-back with :meth:`query`; only the virtual timeline (and the
        device work saved by sharing) differs.

        ``stream_feed`` (a :class:`~repro.services.streaming.StreamFeed`)
        interleaves ingest with the drain: its batches land on the delta
        logs at pre-assigned scheduling rounds, and each query runs against
        the snapshot published at its admission round — answers are
        bit-identical to admitting the same query against a store that
        stopped ingesting at that snapshot.
        """
        specs, self._submitted = self._submitted, []
        if not specs:
            return DrainReport(queries=[])
        inflight = MAX_INFLIGHT if max_inflight is None else int(max_inflight)
        if inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {inflight}")
        sharing = self.features.shared_scans if shared_scans is None else bool(shared_scans)
        from .vertexprog import make_vp_generator, vp_report

        owner_of = self._owner_of()

        def marked(s):
            """``(ctx, q) ->`` query ``s``'s level-marked rank generator:
            Algorithm 1, or a vertex program speaking the same protocol."""
            self._visited_seq += 1
            seq = self._visited_seq
            if s.analysis != "bfs":
                return make_vp_generator(self, s.analysis, s.params or {}, level_marks=True)
            cfg = self._bfs_config(
                s.source,
                s.dest,
                s.max_levels,
                self._direction(s.direction_opt, s.direction_schedule),
                marks=True,
            )
            return lambda c, q: self._visited_search(
                c,
                s.visited,
                seq,
                lambda v: oocbfs_program(c, self.dbs[q], cfg, v, owner_of=owner_of),
            )

        gens = [marked(s) for s in specs]

        rank_outs = self._run_on_backends(
            lambda ctx, q: multiplex_program(
                ctx,
                self.dbs[q],
                specs,
                lambda c, qid: gens[qid](c, q),
                inflight,
                sharing,
                feed=stream_feed,
            )
        )
        reports = []
        for spec in specs:
            per_rank = [ro.queries[spec.qid] for ro in rank_outs]
            results = [o.result for o in per_rank]
            # Per-query attribution, not run totals.  Admission (and
            # therefore the snapshot) is rank-uniform.
            drain_fields = dict(
                seconds=max(o.latency_seconds for o in per_rank),
                edges_scanned=sum(o.edges_scanned for o in per_rank),
                tenant=spec.tenant,
                queue_seconds=max(o.queue_seconds for o in per_rank),
                snapshot_seq=per_rank[0].snapshot_seq,
            )
            if spec.analysis == "bfs":
                reports.append(self._bfs_report(results, **drain_fields))
            else:
                reports.append(
                    vp_report(spec.analysis, spec.params or {}, results, **drain_fields)
                )
        return DrainReport(
            queries=reports,
            seconds=self.cluster.makespan,
            rounds=max(ro.rounds for ro in rank_outs),
            shared_passes=sum(ro.shared_passes for ro in rank_outs),
            shared_served=sum(ro.shared_served for ro in rank_outs),
            stream_batches=(
                stream_feed.batches_applied if stream_feed is not None else 0
            ),
        )

    def _bfs_analysis(self, program, source, dest, **params):
        """``bfs`` / ``pipelined-bfs``: ``params`` are :meth:`_run_bfs`'s
        per-query ones, plus Algorithm 2's ``threshold`` / ``poll_batch``."""
        return self._bfs_report(self._run_bfs(program, source, dest, **params))

    def _bfs_report(self, results, analysis: str = "bfs", seconds=None, **fields) -> QueryReport:
        """:func:`rank_report` of a search (``results``: :class:`BFSRankResult` s);
        ``seconds=None``: it had the cluster run to itself."""
        levels = {r.found_level for r in results}
        if len(levels) != 1:
            raise ConfigError(f"back-ends disagree on BFS outcome: {levels}")
        found = results[0].found_level
        return rank_report(
            analysis,
            results,
            self.cluster.makespan if seconds is None else seconds,
            result=None if found == NOT_FOUND else found,
            levels=max(r.levels_expanded for r in results),
            # The direction sequence is rank-uniform by construction; take
            # rank 0's.  Examined/skipped counts sum (disjoint scan sets).
            directions=tuple(results[0].directions),
            edges_examined=sum(r.edges_examined for r in results),
            edges_skipped=sum(r.edges_skipped for r in results),
            **fields,
        )

    def _degree_analysis(self, vertices):
        """Stored degree of each requested vertex (see :func:`degree_program`)."""
        vertices = np.asarray([int(v) for v in vertices], dtype=np.int64)
        ft, owner_of = self._ft(), self._owner_of()
        results = self._run_on_backends(
            lambda ctx, q: degree_program(ctx, self.dbs[q], vertices, ft, owner_of)
        )
        return rank_report(
            "degree", [r for r, _ in results], self.cluster.makespan, result=results[0][1]
        )

    def _neighborhood_analysis(self, source, hops):
        """Count of vertices within ``hops`` of ``source`` (incl. source): a
        search for an id no vertex has, bounded at ``hops`` levels."""

        def program(ctx, db, cfg, visited, owner_of):
            res = yield from oocbfs_program(ctx, db, cfg, visited, owner_of)
            # Owner mode: per-rank fringes are disjoint, so they sum.
            # Broadcast mode: every rank holds the full fringe, so only
            # rank 0 contributes.  The source itself counts once.
            mine = res.fringe_vertices if (cfg.owner_known or ctx.comm.rank == 0) else 0
            if ctx.comm.rank == 0:
                mine += 1
            return res, (yield from ctx.comm.allreduce(mine, operator.add))

        results = self._run_bfs(program, source, -1, max_levels=int(hops), direction_opt=False)
        report = self._bfs_report([r for r, _ in results], analysis="neighborhood")
        report.result = results[0][1]
        return report


def degree_program(ctx, db, vertices: np.ndarray, ft_cfg, owner_of):
    """Rank program: ``(RankResult, {vertex: stored degree})`` of ``vertices``.

    With an owner map each vertex is read once, by the first surviving
    holder of its replica chain, with bounded retry rounds when a reader
    dies; one nobody can read counts 0 and flags the result ``partial``.
    Without a map (edge granularity) every rank's stored slice sums.
    """
    with span(ctx, db, ft_cfg, RankResult()) as (result, ft):
        if owner_of is None and ft is not None and ft.replication > 1:
            raise ConfigError(
                "degree cannot run on replicated owner-unknown declustering: "
                "every stored copy of an edge would be counted"
            )
        counted = []  # (rank, {vertex: degree}) of every round

        def attempt(todo):
            with guard(ctx, ft) as read:
                mine = {v: len(db.get_adjacency(v)) for v in todo.tolist()}
            return mine if read.ok else {}

        def exchange(mine):
            posts = yield from ctx.comm.allgather((is_down(ft), mine))
            counted.extend(enumerate(mine for _, mine in posts))
            return [down for down, _ in posts]

        down = yield from serve_once(ctx, ft, vertices, owner_of, attempt, exchange)
        degrees = dict.fromkeys(vertices.tolist(), 0)
        # What a rank down at the end read was read again by a live holder.
        for q, mine in counted:
            if not down[q]:
                for v, degree in mine.items():
                    degrees[v] += degree
    return result, degrees


def rank_report(
    analysis: str, results, seconds: float, result, levels=0, edges_scanned=None, **fields
) -> QueryReport:
    """Fold one :class:`~repro.bfs.rankprog.RankResult` per back-end into the
    report; ``fields`` are what only this analysis, or only a drain, reports.

    ``seconds`` / ``edges_scanned`` are the run's totals for a solo query
    (``None``: the ranks' sum) and the query's own attribution in a drain.
    """
    return QueryReport(
        analysis=analysis,
        seconds=seconds,
        result=result,
        levels=levels,
        edges_scanned=(
            sum(r.edges_scanned for r in results) if edges_scanned is None else edges_scanned
        ),
        partial=any(r.partial for r in results),
        failovers=sum(r.failovers for r in results),
        device_failures=sum(r.device_failed for r in results),
        corrupt_backends=tuple(q for q, r in enumerate(results) if r.corrupt),
        dropped_vertices=sum(r.dropped_vertices for r in results),
        deadline_exceeded=any(r.deadline_exceeded for r in results),
        **fields,
    )
