"""MSSG framework façade: the one-stop public API.

Wires the whole stack of Figure 3.1 together — a simulated cluster of
front-end and back-end nodes, one GraphDB instance per back-end, the
Ingestion Service, and the Query Service::

    from repro import MSSG, MSSGConfig
    from repro.graphgen import pubmed_like

    mssg = MSSG(MSSGConfig(num_backends=4, num_frontends=2, backend="grDB"))
    report = mssg.ingest(pubmed_like(5000))
    answer = mssg.query_bfs(source=3, dest=4711)
    print(answer.result, answer.seconds)
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .features import Features
from .graphdb import AdjacencyBatch, GraphDB, GrDBFormat, ModuloMap, make_graphdb
from .graphdb.registry import BACKENDS
from .services import (
    Declusterer,
    DrainReport,
    EdgeRoundRobin,
    IngestionService,
    IngestReport,
    QueryReport,
    QueryService,
    ReplicatedDeclusterer,
    VertexHash,
    VertexRoundRobin,
)
from .services.streaming import CompactReport, StreamFeed, StreamingState
from .simcluster import FaultPlan, NodeSpec, SimCluster
from .util.errors import ConfigError, DeviceFailedError
from .util.varint import edge_block_bytes

__all__ = ["MSSG", "MSSGConfig", "RebalanceReport", "ScrubReport"]


@dataclass
class RebalanceReport:
    """Outcome of one :meth:`MSSG.rebalance` pass."""

    seconds: float  # virtual makespan of the re-replication run
    dead_backends: tuple[int, ...]
    #: Replica copies re-materialized onto surviving back-ends.
    copies_restored: int
    #: Directed adjacency entries copied between back-ends.
    entries_copied: int
    #: Effective replication factor after the pass (min copies over all
    #: partitions; equals the configured ``k`` when repair fully succeeds).
    replication: int
    #: Primary partitions whose every holder died — their data is gone and
    #: queries over them stay partial until re-ingestion.
    unrecoverable_partitions: tuple[int, ...] = ()


@dataclass
class ScrubReport:
    """Outcome of one :meth:`MSSG.scrub` pass over every back-end device.

    The scrub walks each back-end's checksummed devices at sequential-scan
    rates (devices of different nodes in parallel), verifies every frame's
    CRC32 trailer, and — when replicas exist — rebuilds any back-end
    holding corrupt frames from the clean copies.
    """

    seconds: float  # virtual seconds (max over nodes — they scrub in parallel)
    frames_scanned: int
    corrupt_frames: int
    repaired_frames: int
    #: Corrupt frames with no clean replica to rebuild from (replication=1,
    #: owner-unknown declustering, or every other holder corrupt/dead too).
    unrecoverable_frames: int
    #: Back-end indices where corruption was found.
    corrupt_backends: tuple[int, ...] = ()


_COPY_TAG = 7700

_DECLUSTERERS = {
    "vertex-rr": VertexRoundRobin,
    "vertex-hash": VertexHash,
    "edge-rr": EdgeRoundRobin,
}


@dataclass
class MSSGConfig:
    """Deployment description of one MSSG installation."""

    num_backends: int = 4
    num_frontends: int = 1
    backend: str = "grDB"
    declustering: str = "vertex-rr"
    window_size: int = 4096
    cache_blocks: int = 256
    grdb_format: GrDBFormat | None = None
    growth_policy: str = "link"
    #: The seven feature knobs, as one value (:mod:`repro.features`).
    features: Features = Features()
    node_spec: NodeSpec = field(default_factory=NodeSpec)
    storage_dir: str | None = None
    #: Copies of each adjacency partition (rotational declustering): data
    #: whose primary owner is back-end ``u`` is also stored on back-ends
    #: ``u+1 .. u+replication-1`` (mod p), and queries fail over to a
    #: surviving replica when a device dies mid-query.
    replication: int = 1
    #: Injected disk faults (see :class:`repro.simcluster.FaultPlan`);
    #: installed on the cluster at deployment.  Use
    #: :meth:`MSSG.set_fault_plan` instead to arm faults only after
    #: ingestion (virtual clocks restart at 0 for every cluster run).
    fault_plan: FaultPlan | None = None
    #: Per-attempt expand budget in virtual seconds (``None`` = no limit).
    attempt_timeout: float | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.declustering not in _DECLUSTERERS:
            raise ConfigError(
                f"unknown declustering {self.declustering!r}; "
                f"choose from {sorted(_DECLUSTERERS)}"
            )
        if self.num_backends < 1 or self.num_frontends < 1:
            raise ConfigError("need at least one back-end and one front-end")
        if not 1 <= self.replication <= self.num_backends:
            raise ConfigError(
                f"replication must be in [1, num_backends={self.num_backends}], "
                f"got {self.replication}"
            )
        if not isinstance(self.features, Features):
            raise ConfigError(f"features must be a Features value, got {self.features!r}")


# -- legacy-knob fold: begin (delete with ROADMAP direction 1(e)) --------------
# ``MSSGConfig(checksums=False, ...)``: a keyword naming a ``Features`` field is
# applied on top of ``features`` at construction, because the frozen
# ``benchmarks/twoclock/deployments.py::make_config`` spells ``PAPER_KNOBS`` +
# ``streaming=`` that way.  Construction only: a config has no such attribute.
_config_init = MSSGConfig.__init__


@functools.wraps(_config_init)
def _init_folding_knobs(self, *args, **kw):
    knobs = {f.name: kw.pop(f.name) for f in dataclasses.fields(Features) if f.name in kw}
    if knobs:
        kw["features"] = dataclasses.replace(kw.get("features", Features()), **knobs)
    _config_init(self, *args, **kw)


MSSGConfig.__init__ = _init_folding_knobs
# -- legacy-knob fold: end -----------------------------------------------------


def _max_id(*edge_batches) -> int:
    """Highest vertex id in any of the edge arrays; -1 when all are empty."""
    return max((int(np.max(b)) for b in edge_batches if np.size(b)), default=-1)


def _adjacency_wire_size(entries, compress: bool) -> int:
    """Bytes one adjacency shipment (rebalance/repair) puts on the wire.

    Compressed deployments move adjacency compressed: the same record
    framing the StreamDB log uses (12-byte header + delta+varint edge
    block).  Raw deployments ship 16-byte pairs.  Either way +8 bytes of
    message header; ``None`` (extraction failed at the source) is a bare
    header.
    """
    if entries is None:
        return 8
    if compress and len(entries):
        return edge_block_bytes(entries) + 12 + 8
    return 16 * len(entries) + 8


class MSSG:
    """A deployed MSSG instance over a simulated cluster."""

    def __init__(self, config: MSSGConfig | None = None):
        self.config = config if config is not None else MSSGConfig()
        cfg = self.config
        self.cluster = SimCluster(
            nranks=cfg.num_frontends + cfg.num_backends,
            spec=cfg.node_spec,
            storage_dir=cfg.storage_dir,
            fault_plan=cfg.fault_plan,
        )
        self.declusterer: Declusterer = _DECLUSTERERS[cfg.declustering](cfg.num_backends)
        if cfg.replication > 1:
            self.declusterer = ReplicatedDeclusterer(self.declusterer, cfg.replication)
        self.dbs: list[GraphDB] = [self._make_db(q) for q in range(cfg.num_backends)]
        self.ingestion = IngestionService(
            self.cluster,
            self.dbs,
            self.declusterer,
            num_frontends=cfg.num_frontends,
            window_size=cfg.window_size,
        )
        self.queries = QueryService(
            self.cluster,
            self.dbs,
            self.declusterer,
            cfg.features,
            num_frontends=cfg.num_frontends,
            # Replicated deployments always run the failover protocol; an
            # unreplicated one runs it only when faults are expected, so the
            # healthy fast path stays byte-for-byte the original algorithms.
            fault_tolerant=(cfg.replication > 1 or cfg.fault_plan is not None) or None,
            attempt_timeout=cfg.attempt_timeout,
        )
        # A reopened store rebuilt its census at open: what it holds bounds
        # the id space as an ingest of it would (a fresh one: a no-op).
        self._note_id_space(
            _max_id(*(db.local_vertices()[-1:] for db in self.dbs)),
            sum(db.stats.edges_stored for db in self.dbs) // cfg.replication,
        )
        self.last_ingest: IngestReport | None = None
        #: Streaming machinery (delta logs + overlays).  Constructing it
        #: doubles as crash recovery: reopening a streaming deployment over
        #: the same ``storage_dir`` replays the delta logs, settles any
        #: interrupted compaction, and restores the last published snapshot.
        self.streaming = StreamingState(self) if cfg.features.streaming else None
        if self.streaming is not None:  # what its recovery learned
            if cfg.replication > 1:  # else nobody could serve a laggard's share
                self._note_failed(self.streaming.lagging)
            self._note_id_space(self.streaming.recovered_max_id)

    def _note_failed(self, backends) -> None:
        """Back-ends an ingest, a compaction or a recovery found dead are known
        dead *now*; record them (as a rebalance pass would) so queries route
        their shards to replicas outright.  Leaving rediscovery to the query
        is unsound: a dead back-end whose few blocks are still cache-resident
        answers from RAM, never touches its failed device, and silently
        returns an incomplete non-partial result."""
        if backends:
            self.queries.known_dead |= set(backends)
            self.queries.fault_tolerant = True

    def _note_id_space(self, max_id: int, endpoints: int = 0) -> None:
        """The direction-optimizing hybrid's fringe bitmap and the dense
        visited array are sized from the vertex-id space, and the dense array
        is chosen only where that space is no larger than the ``endpoints``
        (two per edge) ingested; record both at ingest, and at open from what
        reopened stores hold, so queries know them without a cluster round.
        Both grow monotonically; ``max_id < 0``: no id was seen."""
        q = self.queries
        if max_id >= 0:
            q.num_vertices = max(q.num_vertices or 0, max_id + 1)
        q.endpoints_ingested += endpoints

    def _make_db(self, q: int) -> GraphDB:
        """Build back-end ``q``'s GraphDB instance on its node.

        Used at deployment and again by the recovery planner
        (:meth:`_restore`), which rebuilds a corrupt back-end from scratch on
        the same devices.
        """
        cfg = self.config
        node = self.cluster.nodes[cfg.num_frontends + q]
        # grDB packs its level-0 file densely when the owner map is the
        # globally known GID % p round robin.  With replication each
        # back-end also stores its neighbours' partitions, so the
        # modulo map no longer covers the local id space — fall back to
        # the generic map.
        id_map = (
            ModuloMap(cfg.num_backends, q)
            if cfg.backend == "grDB"
            and cfg.declustering == "vertex-rr"
            and cfg.replication == 1
            else None
        )
        return make_graphdb(
            cfg.backend,
            node,
            cfg.features,
            id_map=id_map,
            cache_blocks=cfg.cache_blocks,
            grdb_format=cfg.grdb_format,
            growth_policy=cfg.growth_policy,
        )

    # -- public operations ---------------------------------------------------

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Install (or clear, with ``None``) a disk fault plan on the cluster.

        A plan may be armed at any point of the deployment's life — before
        ingestion, between ingestion and queries, or between streamed
        batches.  The only semantics to understand is the clock: virtual
        clocks restart at 0 for every ``cluster.run``, so a time-triggered
        fault fires at virtual times measured within whichever run comes
        *next* (an ``after_ops`` trigger counts that device's operations
        from installation instead and is run-agnostic).  Installing a plan
        between ingestion and a query is therefore the way to model "a
        disk dies mid-search" without also failing the ingestion — not a
        restriction on when plans are allowed.  Enables the query-side
        failover protocol as a side effect.
        """
        self.cluster.install_fault_plan(plan)
        if plan is not None:
            self.queries.fault_tolerant = True

    def ingest(self, edges: np.ndarray) -> IngestReport:
        """Stream an undirected edge list into the back-end GraphDBs."""
        self.last_ingest = self.ingestion.ingest(edges)
        self._note_failed(self.last_ingest.failed_backends)
        self._note_id_space(_max_id(edges), np.size(edges))
        return self.last_ingest

    def ingest_stream(self, edges: np.ndarray) -> IngestReport:
        """Append one edge batch incrementally (streaming deployments).

        The batch runs through the same ingestion pipeline as
        :meth:`ingest` (same declustering, same windows, same fault
        accounting) but lands on each back-end's crash-safe delta log
        instead of its base files: when this returns, the batch is durable
        and *published* — visible to every subsequently admitted query —
        while the base stores are untouched until :meth:`compact` folds the
        deltas in.  A crash anywhere in between recovers to the last
        published snapshot.  Returns the deployment's accumulated
        :class:`IngestReport` (``batches`` counts the streamed batches).
        """
        report = self._streaming("ingest_stream").ingest_batch(edges)
        self._note_failed(report.failed_backends)
        self._note_id_space(_max_id(edges), np.size(edges))
        if self.last_ingest is None:
            self.last_ingest = report
        else:
            self.last_ingest.absorb(report)
        return self.last_ingest

    def _streaming(self, what: str) -> StreamingState:
        """The streaming machinery, or the error that names the knob arming it."""
        if self.streaming is None:
            raise ConfigError(f"{what} requires MSSGConfig(features=Features(streaming=True))")
        return self.streaming

    def compact(self) -> CompactReport:
        """Fold published stream deltas into the base stores.

        Each back-end folds under the delta log's two-phase intent
        protocol: a crash mid-fold either keeps the deltas or adopts the
        fold, never both and never neither (on the token-bearing backends
        — grDB and StreamDB with checksums; the others conservatively
        replay, see :mod:`repro.storage.deltalog`).  Queries before and
        after a compaction read identical adjacency.
        """
        report = self._streaming("compact").compact()
        self._note_failed(report.failed_backends)
        return report

    def dead_backends(self) -> list[int]:
        """Back-end indices whose block device has failed (sticky)."""
        F = self.config.num_frontends
        return [
            q
            for q in range(self.config.num_backends)
            if any(dev.failed for dev in self.cluster.nodes[F + q]._disks.values())
        ]

    def rebalance(self) -> RebalanceReport:
        """Re-replicate partitions held by dead back-ends onto survivors.

        The recovery planner (:meth:`_restore`) refills the dead holders'
        copies from clean holders onto the next alive non-holders, installs
        the repaired chain map and records the deaths, so later queries go
        straight to the new holders with zero failover rounds.  Owner-unknown
        declustering (edge-rr) cannot extract a partition: a pass that would
        copy one raises ``ConfigError``.  A partition whose *every* holder
        died is unrecoverable; queries over it stay partial until re-ingestion.
        """
        return self._restore(set(self.dead_backends()))[0]

    def _restore(self, lost: set[int], corrupt=frozenset()) -> tuple[RebalanceReport, set[int]]:
        """The recovery planner: bring every partition back to k clean copies.

        A copy on a back-end in ``lost`` is lost (a dead holder, or a corrupt
        one the caller can rebuild).  A partition's source is its first
        chain member that is alive and not in ``lost`` or ``corrupt``; with
        none, the partition is unrecoverable.  A lost copy is refilled on its
        former holder when that back-end is alive — wiped and rebuilt first —
        else on the next alive non-holder scanning from ``u + 1``, the
        direction the rotational chain grew.  Every move tolerates device
        faults; one that does not land drops its target from the chain.
        Returns the pass's report and the rebuilt back-ends whose every move
        landed.
        """
        P, k = self.config.num_backends, self.declusterer.replication
        self._note_failed(self.dead_backends())
        dead = set(self.queries.known_dead)  # lagging stream logs count too
        unclean = dead | lost | set(corrupt)
        moves: list[tuple[int, int, int]] = []  # (partition, source, target)
        chains: list[list[int]] = []
        unrecoverable: list[int] = []
        for u, chain in enumerate(self.declusterer.chain_map()):
            kept = [t for t in chain if t not in lost or t not in dead]
            chains.append(kept)
            source = next((t for t in chain if t not in unclean), None)
            if lost.isdisjoint(chain) or source is None:
                if not kept:
                    unrecoverable.append(u)
                continue
            moves += [(u, source, t) for t in kept if t in lost]
            for cand in ((u + step) % P for step in range(1, P)):
                if len(kept) >= k:
                    break
                if cand not in dead and cand not in kept:
                    moves.append((u, source, cand))
                    kept.append(cand)
        if moves and not self.declusterer.owner_known:
            raise ConfigError(
                "cannot rebalance owner-unknown declustering (edge-rr): no "
                "owner map to extract a dead back-end's partitions with"
            )
        rebuilt = {t for _, _, t in moves if t in lost}
        for q in rebuilt:
            for dev in self.cluster.nodes[self.config.num_frontends + q]._disks.values():
                dev.truncate(0)
            self.dbs[q] = self._make_db(q)
            if self.streaming is not None:
                self.streaming.restart(q)
        stored, failed = self._copy_partitions(moves) if moves else ({}, set())
        for i in failed:
            u, _, dst = moves[i]
            chains[u].remove(dst)
            rebuilt.discard(dst)
        self.declusterer.set_chains(chains)
        # Targets and sources may have died mid-copy: record every death.
        self._note_failed(self.dead_backends())
        report = RebalanceReport(
            seconds=self.cluster.makespan if moves else 0.0,
            dead_backends=tuple(sorted(lost)),
            copies_restored=len(stored),
            entries_copied=sum(stored.values()),
            replication=self.declusterer.effective_replication,
            unrecoverable_partitions=tuple(unrecoverable),
        )
        return report, rebuilt

    def _copy_partitions(self, moves):
        """Ship partition copies between back-ends as one cluster run.

        ``moves`` is a list of ``(partition, source, target)``: the source
        extracts its copy with one storage-order sweep
        (``scan_adjacency`` over its ``local_vertices`` owned by the
        partition, stream overlay included), the target stores it and
        flushes once at the end.  A device dying at either end voids the
        move.  Returns ``(stored, failed)`` — entries stored per move index,
        and the indices of moves that did not land.
        """
        F = self.config.num_frontends
        compress = self.config.features.compress_adjacency
        owner_of = self.declusterer.owner_of
        dbs = self.dbs

        def extract(db, u: int) -> np.ndarray:
            verts = db.local_vertices()
            batch = AdjacencyBatch.concat(db.scan_adjacency(verts[owner_of(verts) == u])).grouped()
            return np.column_stack([np.repeat(batch.vertices, batch.degrees), batch.neighbors])

        def program(ctx):
            q = ctx.rank - F
            stored: dict[int, int] = {}
            failed: list[int] = []
            for i, (u, src, dst) in enumerate(moves):
                if q == src:
                    try:
                        entries = extract(dbs[src], u)
                    except DeviceFailedError:
                        entries = None
                    # Non-blocking send: move order is shared by all
                    # ranks and a move's source never receives for it,
                    # so processing moves in order cannot deadlock.
                    size = _adjacency_wire_size(entries, compress)
                    ctx.comm.send(F + dst, entries, tag=_COPY_TAG, size=size)
                if q == dst:
                    msg = yield from ctx.comm.recv(source=F + src, tag=_COPY_TAG)
                    entries = msg.payload
                    if entries is None:
                        failed.append(i)
                        continue
                    try:
                        if len(entries):
                            dbs[dst].store_edges(entries)
                        stored[i] = len(entries)
                    except DeviceFailedError:
                        failed.append(i)
            if stored:
                try:
                    dbs[q].finalize_ingest()
                    dbs[q].flush()
                except DeviceFailedError:
                    # The new holder died before its copies hit disk:
                    # everything it accepted this pass is void.
                    failed.extend(stored)
                    stored.clear()
            return stored, failed

        stored_all: dict[int, int] = {}
        failed_all: set[int] = set()
        for stored, failed in self.cluster.run(program):
            stored_all.update(stored)
            failed_all.update(failed)
        return stored_all, failed_all

    # -- integrity: scrub + read-repair ----------------------------------------

    def _count_corrupt_frames(self, q: int) -> tuple[int, int]:
        """``(frames scanned, corrupt frames)`` over back-end ``q``'s
        checksummed devices, charged at sequential-scan rates on its node's
        clock.  A dead device is skipped — it cannot be read at all, which
        is the *other* failure mode — and so is one that dies mid-scan."""
        node = self.cluster.nodes[self.config.num_frontends + q]
        scanned = corrupt = 0
        for dev in node._disks.values():
            wrapper = getattr(dev, "_integrity", None)
            if wrapper is None or dev.failed:
                continue
            try:
                frames = wrapper.frame_count()
                corrupt += sum(1 for _ in wrapper.scrub_frames())
            except DeviceFailedError:
                continue
            scanned += frames
        return scanned, corrupt

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Verify every stored frame of every back-end; repair what has
        clean replicas.

        Walks each back-end's checksummed devices end to end at
        sequential-scan rates (nodes scrub in parallel: the reported
        ``seconds`` is the slowest node's scan), recomputing each frame's
        CRC32; a device that dies during the walk is skipped and its
        back-end recorded dead.  With ``repair=True`` (default) and
        replicated data, each back-end holding corrupt frames whose every
        partition has a clean, alive holder is wiped and rebuilt in place
        by the recovery planner; the other corrupt frames are reported
        unrecoverable.
        """
        return self._scrub(range(self.config.num_backends), repair)

    def _scrub(self, ranks, repair: bool) -> ScrubReport:
        """:meth:`scrub` over the back-ends in ``ranks`` (read-repair passes
        the ones a query flagged)."""
        before = [node.clock.now for node in self.cluster.nodes]
        scanned = 0
        bad: dict[int, int] = {}
        for q in sorted(set(int(r) for r in ranks)):
            s, c = self._count_corrupt_frames(q)
            scanned += s
            if c:
                bad[q] = c
        seconds = max(node.clock.now - t0 for node, t0 in zip(self.cluster.nodes, before))
        self._note_failed(self.dead_backends())
        corrupt = sum(bad.values())
        repaired = 0
        if repair and bad and self.declusterer.owner_known:
            # Wiping a back-end is safe only when every partition it holds
            # has a clean copy elsewhere; else it is left as it is.
            unclean = self.queries.known_dead | set(bad)
            chains = self.declusterer.chain_map()
            alive = bad.keys() - self.queries.known_dead
            rebuild = {q for q in alive if all(set(c) - unclean for c in chains if q in c)}
            for q in self._restore(rebuild, corrupt=set(bad))[1] if rebuild else ():
                self.cluster.nodes[self.config.num_frontends + q].repaired_frames += bad[q]
                repaired += bad[q]
        return ScrubReport(
            seconds=seconds,
            frames_scanned=scanned,
            corrupt_frames=corrupt,
            repaired_frames=repaired,
            unrecoverable_frames=corrupt - repaired,
            corrupt_backends=tuple(sorted(bad)),
        )

    def ingest_semantic(self, graph) -> tuple[IngestReport, dict[str, int]]:
        """Ingest a typed :class:`~repro.ontology.SemanticGraph`.

        Validates the instance against its ontology (raising on the first
        violation), streams its edges in, and replicates vertex-type
        metadata to every back-end so ontology-constrained analyses
        ("typed-bfs") work out of the box.  Returns the ingest report and
        the assigned ``type name -> integer code`` table.
        """
        from .ontology import validate_graph

        if graph.ontology is not None:
            violations = validate_graph(graph)
            if violations:
                raise ConfigError(
                    f"semantic graph violates its ontology: {violations[0].detail} "
                    f"(+{len(violations) - 1} more)"
                )
        report = self.ingest(graph.edge_list())
        type_names = sorted({t for _, t in graph.vertices()})
        codes = {name: i for i, name in enumerate(type_names)}
        type_codes = {gid: codes[t] for gid, t in graph.vertices()}
        self.queries.query("load-vertex-types", type_codes=type_codes)
        return report, codes

    def query_bfs(
        self,
        source: int,
        dest: int,
        pipelined: bool = False,
        visited: str = "memory",
        max_levels: int = 64,
        **kw,
    ) -> QueryReport:
        """Relationship query: hop distance from ``source`` to ``dest``.

        When the checksum layer flagged corrupt frames during the search
        (the shard was answered by a replica), the damaged back-ends are
        repaired afterwards — read-repair — and ``report.repairs`` counts
        the frames healed.  With replication=1 there is nothing to repair
        from and the report is flagged partial by the failover protocol.
        """
        analysis = "pipelined-bfs" if pipelined else "bfs"
        report = self.queries.query(
            analysis, source=source, dest=dest, visited=visited, max_levels=max_levels, **kw
        )
        if report.corrupt_backends and self.config.features.checksums:
            report.repairs = self._scrub(report.corrupt_backends, True).repaired_frames
        return report

    def query_many(
        self,
        pairs,
        tenants=None,
        deadline: float | None = None,
        max_inflight: int | None = None,
        shared_scans: bool | None = None,
        visited: str = "memory",
        max_levels: int = 64,
        analytics=None,
        stream_batches=None,
        stream_every: int = 1,
        **kw,
    ) -> DrainReport:
        """Serve many relationship queries concurrently in one cluster run.

        ``pairs`` is a sequence of ``(source, dest)``; ``tenants`` (optional,
        same length) tags each query for round-robin fairness; ``deadline``
        is a per-query virtual-seconds budget from admission.  ``analytics``
        optionally appends vertex-program queries to the same drain — each
        entry an analysis name ("pagerank", "components") or an
        ``(analysis, params)`` pair — so analytics interleave with BFS
        superstep-by-level under the same admission control; their reports
        follow the BFS reports in submission order.
        Queries are interleaved level-by-level under the admission cap
        (``max_inflight``, default 64), with backend sweeps shared between a
        round's subscribers (``shared_scans``).  Answers are bit-identical to
        running each pair through :meth:`query_bfs` (and each analytics
        entry through :meth:`query`) sequentially.  When the
        checksum layer flagged corrupt frames on any back-end during the
        drain, the damaged back-ends are read-repaired once afterwards
        (``report.repairs``).

        ``stream_batches`` (streaming deployments) interleaves ingest with
        the drain: each batch is appended to the delta logs at every
        ``stream_every``-th scheduling round, and every query answers
        against the snapshot published at its own admission
        (``QueryReport.snapshot_seq``) — bit-identical to querying a store
        that stopped ingesting at that snapshot.
        """
        pairs = list(pairs)
        feed = None
        if stream_batches is not None:
            stream_batches = list(stream_batches)  # read twice: plan and id space
            feed = StreamFeed(self._streaming("stream_batches"), stream_batches, every=stream_every)
            # Grow the id space *before* the drain: direction-opt bitmaps
            # and pinned visited arrays are sized from it at admission, and
            # mid-drain batches may introduce new vertex ids.
            self._note_id_space(
                _max_id(*stream_batches), sum(np.size(b) for b in stream_batches)
            )
        if tenants is not None and len(tenants) != len(pairs):
            raise ConfigError(
                f"tenants has {len(tenants)} entries for {len(pairs)} queries"
            )
        for i, (source, dest) in enumerate(pairs):
            self.queries.submit(
                source,
                dest,
                tenant="default" if tenants is None else tenants[i],
                deadline=deadline,
                visited=visited,
                max_levels=max_levels,
                **kw,
            )
        for entry in analytics or ():
            analysis, params = entry if isinstance(entry, tuple) else (entry, None)
            self.queries.submit(
                analysis=analysis, params=params, deadline=deadline
            )
        report = self.queries.drain(
            max_inflight=max_inflight, shared_scans=shared_scans, stream_feed=feed
        )
        if feed is not None:
            self._absorb_feed(feed)
        corrupt = sorted({q for rep in report.queries for q in rep.corrupt_backends})
        if corrupt and self.config.features.checksums:
            report.repairs = self._scrub(corrupt, True).repaired_frames
        return report

    def _absorb_feed(self, feed) -> None:
        """Fold an in-drain feed's applied batches into the façade state
        (accumulated ingest report, death records) — the same bookkeeping
        :meth:`ingest_stream` does per batch."""
        applied = feed.batches_applied
        if applied:
            inc = IngestReport(
                # Ingest time is inside the drain's makespan, already
                # reported there; double-charging it here would be wrong.
                seconds=0.0,
                edges_ingested=sum(feed.batch_sizes[:applied]),
                entries_stored=sum(feed.applied_entries),
                windows=applied,
                per_backend_entries=list(feed.applied_entries),
                replication=feed.replication,
                degraded=bool(feed.failed),
                failed_backends=tuple(sorted(feed.failed)),
                batches=applied,
            )
            if self.last_ingest is None:
                self.last_ingest = inc
            else:
                self.last_ingest.absorb(inc)
        self._note_failed(feed.failed)

    def query(self, analysis: str, **params) -> QueryReport:
        return self.queries.query(analysis, **params)

    def backend_stats(self) -> list[dict]:
        """Per-back-end operation counters."""
        return [
            {
                "backend": db.name,
                "edges_stored": db.stats.edges_stored,
                "edges_scanned": db.stats.edges_scanned,
                "adjacency_requests": db.stats.adjacency_requests,
            }
            for db in self.dbs
        ]

    def close(self) -> None:
        for db in self.dbs:
            try:
                db.close()
            except DeviceFailedError:
                # Closing flushes dirty cache blocks; a back-end whose
                # device was killed by an injected fault cannot accept the
                # write-back, and teardown must not die with it.
                pass
        self.cluster.close()
        self.queries.close()
        # StreamingState points back at this deployment: dropping it lets a
        # closed deployment be freed by reference count (see QueryService.close).
        self.streaming = None

    def __enter__(self) -> "MSSG":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
