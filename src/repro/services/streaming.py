"""Streaming ingest: delta overlays, snapshot publish, and compaction.

The streaming layer (DESIGN §12) lets an MSSG deployment absorb edge
batches continuously while queries keep running against consistent data:

* every back-end carries a crash-safe :class:`~repro.storage.deltalog.DeltaLog`
  plus an in-memory :class:`DeltaOverlay` — the adjacency the store has
  accepted since its base files were last compacted, and the only RAM copy
  of it.  :meth:`StreamingState.append` is the one step that writes both:
  the log first, the overlay once the log append is durable;
* a *published snapshot id* (``StreamingState.published``, the last
  cluster-widely committed batch seq) gates visibility: a query inside a
  drain pins its admission snapshot and every adjacency read merges base +
  only the overlay batches ``<=`` that id, so an in-flight query never
  observes a half-applied batch.  Outside a drain's pinned snapshots every
  batch an overlay holds is already published, so an unpinned read sees
  all of them;
* :meth:`StreamingState.compact` folds the overlay into the base store
  (grDB sub-blocks / StreamDB log records) under the delta log's two-phase
  intent protocol, so a crash at any point either keeps the deltas or
  adopts the fold — never both, never neither.

Batches route through the *same* ingestion pipeline as a batch ingest
(same declusterer, same windows, same fault accounting): the DataCutter
writer filters are simply handed :class:`_DeltaSink` objects that append
through :meth:`StreamingState.append` instead of to the base stores; an
in-drain :class:`StreamFeed` appends through the same step.  A streamed
prefix is therefore partitioned identically to a from-scratch batch
ingest of that prefix — the invariant the property tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphdb.interface import AdjacencyBatch, gather_segments
from ..storage.deltalog import DeltaLog
from ..util.errors import ConfigError, DeviceFailedError

__all__ = [
    "CompactReport",
    "DeltaOverlay",
    "OverlayView",
    "StreamFeed",
    "StreamingState",
]


class OverlayView:
    """The overlay batches visible to one query's admission snapshot,
    consolidated into one CSR: vertices ascending, a vertex's entries by
    batch seq, each batch's sorted by destination."""

    def __init__(self, batches: list[tuple[int, np.ndarray]]):
        self.batch = AdjacencyBatch.from_edges(np.concatenate([e for _, e in batches]))

    def adjacency(self, vertex: int) -> np.ndarray:
        (start,), (n,) = self.batch.segments(np.array([vertex]))
        return self.batch.neighbors[start : start + n]

    def degrees(self, vs: np.ndarray) -> np.ndarray:
        return self.batch.segments(vs)[1]

    def vertices(self) -> np.ndarray:
        return self.batch.vertices

    def fringe(self, vs) -> np.ndarray:
        """Concatenated overlay adjacency of every fringe vertex, in fringe
        order (the order ``expand_fringe`` returns the base's lists in)."""
        vs = np.asarray(vs, dtype=np.int64)
        return gather_segments(self.batch.neighbors, *self.batch.segments(vs))[0]


class DeltaOverlay:
    """In-memory image of one back-end's delta log, snapshot-filterable.

    Batches are held individually (not merged) so a query admitted at
    snapshot ``s`` can read exactly the batches with ``seq <= s`` while a
    later batch is already being appended — MVCC at batch granularity.
    Reads go through a consolidated :class:`OverlayView`, built on the
    first read at a horizon and kept until the batch list next changes.
    """

    def __init__(self, batches: list[tuple[int, np.ndarray]] | None = None):
        #: ``(seq, edges)`` per committed, not yet folded batch, ascending
        #: seq; ``edges`` is ``(E, 2)`` int64 sorted by ``(src, dst)``.
        self.batches: list[tuple[int, np.ndarray]] = batches or []
        #: horizon -> its view (``None``: nothing visible).  Filled by reads
        #: only and dropped whole on every change: ingest pays nothing and
        #: the cache never outgrows one drain round's snapshots.
        self._views: dict[int, OverlayView | None] = {}

    def append(self, seq: int, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges):
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        self.batches.append((seq, edges))
        self._views.clear()

    def drop_through(self, seq: int) -> None:
        """Forget batches folded into the base store (``<= seq``)."""
        self.batches = [(s, e) for s, e in self.batches if s > seq]
        self._views.clear()

    def view(self, snap: int | None) -> OverlayView | None:
        """The read view at snapshot ``snap`` (``None``: every batch held).

        ``None`` is exact because, outside a drain's pinned snapshots, every
        batch an overlay holds is already published: ``ingest_batch``
        publishes before it returns, a feed publishes each batch once every
        rank applied it and runs through its last round, and recovery
        publishes the highest committed seq of any log (DESIGN §12).
        Returns ``None`` when no overlay batch is visible — the common
        compacted/steady case, which keeps the base read path zero-cost.
        """
        horizon = snap
        if horizon is None:
            horizon = self.batches[-1][0] if self.batches else 0
        if horizon not in self._views:
            visible = [(s, e) for s, e in self.batches if s <= horizon and len(e)]
            self._views[horizon] = OverlayView(visible) if visible else None
        return self._views[horizon]


class _DeltaSink:
    """Duck-typed GraphDB writer target appending to one delta log.

    Implements exactly the surface the ingestion writer filter touches
    (``store_edges`` / ``finalize_ingest`` / ``flush``), so the whole
    DataCutter pipeline — windows, declustering, death announcements,
    rerouting, loss accounting — runs unmodified.  The batch becomes
    durable at :meth:`flush` time: one DATA+COMMIT append per back-end,
    all-or-nothing under a crash (:meth:`StreamingState.append`).
    """

    def __init__(self, state: "StreamingState", q: int, seq: int):
        self._state = state
        self._q = q
        self._seq = seq
        self._chunks: list[np.ndarray] = []
        self.name = f"delta:{state.mssg.dbs[q].name}"

    def store_edges(self, edges) -> None:
        self._state._live_log(self._q)
        self._chunks.append(np.asarray(edges, dtype=np.int64).reshape(-1, 2))

    def finalize_ingest(self) -> None:
        pass

    def flush(self) -> None:
        edges = np.vstack(self._chunks) if self._chunks else np.zeros((0, 2), dtype=np.int64)
        self._chunks = []
        self._state.append(self._q, self._seq, edges)


@dataclass
class CompactReport:
    """Outcome of one :meth:`StreamingState.compact` pass."""

    seconds: float  # virtual makespan of the compaction run
    #: Stream batches folded into base stores (summed over back-ends).
    batches_folded: int
    #: Directed adjacency entries folded (summed over back-ends).
    entries_folded: int
    #: Back-ends whose device died mid-compaction (their delta logs keep
    #: the batches; recovery resolves the interrupted intent at reopen).
    failed_backends: tuple[int, ...] = ()


class StreamFeed:
    """A deterministic in-drain ingest plan: batches applied mid-drain.

    Built before a ``query_many`` drain.  Each batch is pre-routed through
    the declusterer (identical partitioning to a standalone ingest of the
    same batch) and assigned a scheduling round; at the top of that round
    every back-end rank appends its shard (:meth:`StreamingState.append`),
    and once the last rank has, the published snapshot advances.  Both the
    apply point and the admission snapshot are derived from the
    rank-uniform round counter, so every rank agrees on exactly which
    batches any query can see — no extra collectives.
    """

    def __init__(self, state: "StreamingState", batches, every: int = 1):
        if every < 1:
            raise ConfigError(f"stream_every must be >= 1, got {every}")
        self.state = state
        self.base_published = state.published
        mssg = state.mssg
        self.replication = mssg.declusterer.replication
        #: (at_round, seq, per-back-end shard) — at_round starts at 1.
        self.plan: list[tuple[int, int, list[np.ndarray]]] = []
        #: Undirected edge count of each planned batch (report accounting).
        self.batch_sizes: list[int] = []
        for i, edges in enumerate(batches):
            seq = self.base_published + 1 + i
            edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            self.plan.append((1 + i * every, seq, state.route(edges)))
            self.batch_sizes.append(len(edges))
        P = len(mssg.dbs)
        #: Per back-end: how many plan batches it has applied (a prefix,
        #: since rounds ascend with the plan).
        self._next = [0] * P
        #: Back-ends whose delta append failed mid-drain.
        self.failed: set[int] = set()
        #: Entry counts applied per back-end (for the ingest report).
        self.applied_entries = [0] * P

    def snapshot(self, round_no: int) -> int:
        """The rank-uniform admission snapshot for ``round_no``."""
        return self.base_published + sum(
            1 for at, _, _ in self.plan if at <= round_no
        )

    def step(self, q: int, round_no: int) -> None:
        """Apply every batch due by ``round_no`` to back-end ``q``."""
        for i in range(self._next[q], len(self.plan)):
            at, seq, parts = self.plan[i]
            if at > round_no:
                break
            self._next[q] = i + 1
            try:
                self.state.append(q, seq, parts[q])
                self.applied_entries[q] += len(parts[q])
            except DeviceFailedError:
                self.failed.add(q)
            # Publish once the whole cluster applied the batch; visibility
            # is still gated per-rank by snapshot(), which flips at the
            # same round on every rank.
            if min(self._next) > i:
                self.state.published = seq

    @property
    def batches_applied(self) -> int:
        return min(self._next)

    @property
    def last_round(self) -> int:
        """Round by which the whole plan has been applied (0 if empty).

        The multiplexer keeps its round loop alive through this round even
        after the last query completes, so every planned batch lands — a
        short drain never silently drops the tail of the feed.
        """
        return max((at for at, _, _ in self.plan), default=0)


class StreamingState:
    """Per-deployment streaming machinery: logs, overlays, publish state.

    Construction doubles as crash recovery: each back-end's delta log is
    opened (running its torn-tail truncation), any interrupted compaction
    intent is settled against the base store's recovered commit token, and
    the surviving batches are decoded into overlays.  The published
    snapshot is the max committed seq over openable logs — a crash
    mid-batch leaves the committers ahead and the victims lagging, and the
    lagging back-ends are recorded dead for query routing (their shards —
    base and delta — fail over to replica holders) when replication
    permits.
    """

    def __init__(self, mssg):
        self.mssg = mssg
        cfg = mssg.config
        F = cfg.num_frontends
        self.logs: list[DeltaLog | None] = []
        hi_vertex = -1
        for q, db in enumerate(mssg.dbs):
            node = mssg.cluster.nodes[F + q]
            try:
                log = DeltaLog(node.disk("deltalog"))
            except DeviceFailedError:
                log = None
            if log is not None and log.intent is not None:
                log.resolve_intent(db.commit_token())
            self.logs.append(log)
            # The recovered batches (decoded sorted by ``(src, dst)``) move
            # into the overlay: it is their one RAM copy.
            pending = []
            if log is not None:
                pending, log.pending = log.pending, []
            db._stream_overlay = DeltaOverlay(pending)
            for _, edges in pending:
                if len(edges):
                    hi_vertex = max(hi_vertex, int(edges.max()))
        #: Last cluster-widely published batch seq (queries admit at this;
        #: the one published horizon — overlays hold no copy of it).
        self.published = max(
            (log.committed for log in self.logs if log is not None), default=0
        )
        #: Back-ends missing published batches (dead log device, or a crash
        #: landed between their commit and their peers').  Their answers
        #: would be stale, so queries treat them as dead and fail over.
        self.lagging = tuple(
            q
            for q, log in enumerate(self.logs)
            if log is None or log.committed < self.published
        )
        #: Highest vertex id in the recovered, not yet folded batches (-1: none).
        self.recovered_max_id = hi_vertex

    # -- ingest ---------------------------------------------------------------

    def _live_log(self, q: int) -> DeltaLog:
        """Back-end ``q``'s delta log, or :class:`DeviceFailedError` when its
        device is dead or a failed compaction retired it."""
        log = self.logs[q]
        if log is None:
            raise DeviceFailedError(f"back-end {q}'s delta log device is dead")
        return log

    def append(self, q: int, seq: int, edges: np.ndarray) -> None:
        """The one append step: batch ``seq``'s shard onto back-end ``q``'s
        delta log, durably, then onto its overlay.  Overlay only after the
        durable append succeeded: a torn append must leave RAM and disk
        agreeing that the batch never happened."""
        self._live_log(q).append(seq, edges)
        self.mssg.dbs[q]._stream_overlay.append(seq, edges)

    def route(self, edges: np.ndarray) -> list[np.ndarray]:
        """Partition one batch onto the back-ends the ingestion pipeline would.

        A planning-time helper (used by the in-drain :class:`StreamFeed`).
        Every ingest declusters its batch from stream offset 0, and a
        declusterer is a pure function of a window and its offset, so one
        window over the whole batch puts each entry where the pipeline's
        windows would.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        parts, _, _ = self.mssg.declusterer.assign_routed(edges, 0)
        return [np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in parts]

    def ingest_batch(self, edges: np.ndarray):
        """Append one batch through the full ingestion pipeline.

        The batch is durable (delta logs) and published when this returns;
        it is *not* yet folded into the base stores — :meth:`compact` does
        that.  Returns the batch's :class:`IngestReport` (``batches=1``).
        """
        seq = self.published + 1
        sinks = [_DeltaSink(self, q, seq) for q in range(len(self.mssg.dbs))]
        report = self.mssg.ingestion.ingest(edges, stores=sinks)
        self.published = seq
        return report

    def restart(self, q: int) -> None:
        """Back-end ``q`` was wiped for an in-place rebuild: its new base
        receives the *visible* adjacency of its partitions, every batch
        through ``published`` included.  Restart its delta log as compacted
        through ``published`` and attach an empty overlay, so later batches
        land on it and no compaction or reopen folds a batch twice."""
        self.mssg.dbs[q]._stream_overlay = DeltaOverlay()
        node = self.mssg.cluster.nodes[self.mssg.config.num_frontends + q]
        try:
            log = DeltaLog(node.disk("deltalog"))
            log.finish_compaction(self.published)
        except DeviceFailedError:
            log = None
        self.logs[q] = log

    # -- compaction -----------------------------------------------------------

    def compact(self) -> CompactReport:
        """Fold every back-end's pending deltas into its base store.

        Runs as a cluster program (device writes charged on each back-end
        node's clock, back-ends in parallel) under the delta log's
        two-phase intent: intent root -> one atomic base flush (grDB
        WAL-journaled / StreamDB commit root) -> publish root + log
        reset.  A device death mid-fold leaves the intent for recovery to
        settle; the surviving deltas replay into the overlay at reopen
        either way, so no committed batch is ever lost *or* doubled on a
        token-bearing backend.
        """
        mssg = self.mssg
        F = mssg.config.num_frontends
        dbs = mssg.dbs
        logs = self.logs
        P = len(dbs)

        def program(ctx):
            q = ctx.rank - F
            if q < 0 or q >= P:
                return None
            log = logs[q]
            db = dbs[q]
            # Every batch an overlay holds is committed on its log.
            folded = db._stream_overlay.batches
            if log is None or not folded:
                return (0, 0, False)
            try:
                target = log.begin_compaction(db.commit_token())
                stacks = [e for _, e in folded if len(e)]
                entries = 0
                if stacks:
                    edges = np.vstack(stacks)
                    entries = len(edges)
                    # One store+flush = one journaled base commit; the
                    # intent token decides its fate after a crash.
                    db.store_edges(edges)
                    db.finalize_ingest()
                    db.flush()
                log.finish_compaction(target)
                db._stream_overlay.drop_through(target)
                return (len(folded), entries, False)
            except DeviceFailedError:
                # The intent stays open for reopen to settle; nothing more
                # may append behind it, so the log is retired until then.
                logs[q] = None
                return (0, 0, True)
            yield  # pragma: no cover - generator gate, never reached

        results = mssg.cluster.run(program)
        backend = [r for r in results if r is not None]
        return CompactReport(
            seconds=mssg.cluster.makespan,
            batches_folded=sum(b for b, _, _ in backend),
            entries_folded=sum(e for _, e, _ in backend),
            failed_backends=tuple(
                q for q, (_, _, dead) in enumerate(backend) if dead
            ),
        )
