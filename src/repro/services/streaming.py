"""Streaming ingest: delta overlays, snapshot publish, and compaction.

The streaming layer (DESIGN §12) lets an MSSG deployment absorb edge
batches continuously while queries keep running against consistent data:

* every back-end carries a crash-safe :class:`~repro.storage.deltalog.DeltaLog`
  plus an in-memory :class:`DeltaOverlay` decoded from it — the adjacency
  the store has accepted since its base files were last compacted;
* a *published snapshot id* (the last cluster-widely committed batch seq)
  gates visibility: queries resolve the id once at admission and every
  adjacency read merges base + only the overlay batches ``<=`` that id, so
  an in-flight query never observes a half-applied batch;
* :meth:`StreamingState.compact` folds the overlay into the base store
  (grDB sub-blocks / StreamDB log records) under the delta log's two-phase
  intent protocol, so a crash at any point either keeps the deltas or
  adopts the fold — never both, never neither.

Batches route through the *same* ingestion pipeline as a batch ingest
(same declusterer, same windows, same fault accounting): the DataCutter
writer filters are simply handed :class:`_DeltaSink` objects that append
to the delta logs instead of the base stores.  A streamed prefix is
therefore partitioned identically to a from-scratch batch ingest of that
prefix — the invariant the property tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _OverlayBatch(NamedTuple):
    """One committed stream batch (what :meth:`StreamingState.compact` folds)."""

    seq: int
    edges: np.ndarray  # (E, 2) int64, sorted by (src, dst)


class OverlayView:
    """The overlay batches visible to one query's admission snapshot,
    consolidated into one CSR: vertices ascending, a vertex's entries by
    batch seq, each batch's sorted by destination."""

    def __init__(self, batches: list[_OverlayBatch]):
        self.batch = AdjacencyBatch.from_edges(np.concatenate([b.edges for b in batches]))

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

    def __init__(self):
        self.batches: list[_OverlayBatch] = []
        #: Highest cluster-widely published batch seq; the default
        #: visibility horizon for reads with no pinned snapshot.
        self.published = 0
        #: horizon -> its view (``None``: nothing visible).  Filled by reads
        #: only and dropped whole on every change: ingest pays nothing and
        #: the cache never outgrows one drain round's snapshots.
        self._views: dict[int, OverlayView | None] = {}

    def append(self, seq: int, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges):
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        self.batches.append(_OverlayBatch(seq, edges))
        self._views.clear()

    def drop_through(self, seq: int) -> None:
        """Forget batches folded into the base store (``<= seq``)."""
        self.batches = [b for b in self.batches if b.seq > seq]
        self._views.clear()

    def view(self, snap: int | None) -> OverlayView | None:
        """The read view at snapshot ``snap`` (``None`` = published horizon).

        Returns ``None`` when no overlay batch is visible — the common
        compacted/steady case, which keeps the base read path zero-cost.
        """
        horizon = self.published if snap is None else snap
        if horizon not in self._views:
            visible = [b for b in self.batches if b.seq <= horizon and len(b.edges)]
            self._views[horizon] = OverlayView(visible) if visible else None
        return self._views[horizon]


class _DeltaSink:
    """Duck-typed GraphDB writer target appending to one delta log.

    Implements exactly the surface the ingestion writer filter touches
    (``store_edges`` / ``finalize_ingest`` / ``flush``), so the whole
    DataCutter pipeline — windows, declustering, death announcements,
    rerouting, loss accounting — runs unmodified.  The batch becomes
    durable at :meth:`flush` time: one DATA+COMMIT append per back-end,
    all-or-nothing under a crash.
    """

    def __init__(self, state: "StreamingState", q: int, seq: int):
        self._state = state
        self._q = q
        self._seq = seq
        self._chunks: list[np.ndarray] = []
        self.name = f"delta:{state.mssg.dbs[q].name}"

    def store_edges(self, edges) -> None:
        if self._state.logs[self._q] is None:
            raise DeviceFailedError(
                f"back-end {self._q}'s delta log device is dead"
            )
        self._chunks.append(np.asarray(edges, dtype=np.int64).reshape(-1, 2))

    def finalize_ingest(self) -> None:
        pass

    def flush(self) -> None:
        log = self._state.logs[self._q]
        if log is None:
            raise DeviceFailedError(
                f"back-end {self._q}'s delta log device is dead"
            )
        edges = (
            np.vstack(self._chunks)
            if self._chunks
            else np.zeros((0, 2), dtype=np.int64)
        )
        self._chunks = []
        log.append(self._seq, edges)
        # Overlay only after the durable append succeeded: a torn append
        # must leave RAM and disk agreeing that the batch never happened.
        overlay = self._state.mssg.dbs[self._q]._stream_overlay
        if overlay is not None:
            overlay.append(self._seq, edges)


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

    Built by :meth:`StreamingState.make_feed` before a ``query_many``
    drain.  Each batch is pre-routed through the declusterer (identical
    partitioning to a standalone ingest of the same batch) and assigned a
    scheduling round; at the top of that round every back-end rank appends
    its shard to its delta log + overlay, and the published snapshot
    advances.  Both the apply point and the admission snapshot are derived
    from the rank-uniform round counter, so every rank agrees on exactly
    which batches any query can see — no extra collectives.
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
        self._applied = [[False] * P for _ in self.plan]
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
        state = self.state
        for i, (at, seq, parts) in enumerate(self.plan):
            if at > round_no or self._applied[i][q]:
                continue
            self._applied[i][q] = True
            log = state.logs[q]
            overlay = state.mssg.dbs[q]._stream_overlay
            try:
                if log is None:
                    raise DeviceFailedError(
                        f"back-end {q}'s delta log device is dead"
                    )
                log.append(seq, parts[q])
                if overlay is not None:
                    overlay.append(seq, parts[q])
                self.applied_entries[q] += len(parts[q])
            except DeviceFailedError:
                self.failed.add(q)
            # Publish once the whole cluster applied the batch; visibility
            # is still gated per-rank by snapshot(), which flips at the
            # same round on every rank.
            if all(self._applied[i]):
                state.published = seq
                for db in state.mssg.dbs:
                    if db._stream_overlay is not None:
                        db._stream_overlay.published = seq

    @property
    def batches_applied(self) -> int:
        return sum(1 for flags in self._applied if all(flags))

    @property
    def last_round(self) -> int:
        """Round by which the whole plan has been applied (0 if empty).

        The multiplexer keeps its round loop alive through this round even
        after the last query completes, so every planned batch lands — a
        short drain never silently drops the tail of the feed.
        """
        return max((at for at, _, _ in self.plan), default=0)


class _RankFeed:
    """One back-end rank's handle on a shared :class:`StreamFeed`."""

    def __init__(self, feed: StreamFeed, q: int):
        self._feed = feed
        self._q = q

    def step(self, round_no: int) -> None:
        self._feed.step(self._q, round_no)

    def snapshot(self, round_no: int) -> int:
        return self._feed.snapshot(round_no)

    @property
    def last_round(self) -> int:
        return self._feed.last_round


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
            overlay = DeltaOverlay()
            db._stream_overlay = overlay
            if log is not None:
                for seq, edges in log.pending:
                    overlay.append(seq, edges)
                    if len(edges):
                        hi_vertex = max(hi_vertex, int(edges.max()))
        #: Last cluster-widely published batch seq (queries admit at this).
        self.published = max(
            (log.committed for log in self.logs if log is not None), default=0
        )
        for db in mssg.dbs:
            db._stream_overlay.published = self.published
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
        for db in self.mssg.dbs:
            if db._stream_overlay is not None:
                db._stream_overlay.published = seq
        return report

    def restart(self, q: int) -> None:
        """Back-end ``q`` was wiped for an in-place rebuild: its new base
        receives the *visible* adjacency of its partitions, every batch
        through ``published`` included.  Restart its delta log as compacted
        through ``published`` and attach an empty overlay, so later batches
        land on it and no compaction or reopen folds a batch twice."""
        overlay = DeltaOverlay()
        overlay.published = self.published
        self.mssg.dbs[q]._stream_overlay = overlay
        node = self.mssg.cluster.nodes[self.mssg.config.num_frontends + q]
        try:
            log = DeltaLog(node.disk("deltalog"))
            log.finish_compaction(self.published)
        except DeviceFailedError:
            log = None
        self.logs[q] = log

    def make_feed(self, batches, every: int = 1) -> StreamFeed:
        return StreamFeed(self, list(batches), every=every)

    def for_rank(self, feed: StreamFeed, q: int) -> _RankFeed:
        return _RankFeed(feed, q)

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
            overlay = db._stream_overlay
            if log is None or overlay is None or not overlay.batches:
                return (0, 0, False)
            folded = [b for b in overlay.batches if b.seq <= log.committed]
            if not folded:
                return (0, 0, False)
            try:
                target = log.begin_compaction(db.commit_token())
                stacks = [b.edges for b in folded if len(b.edges)]
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
                overlay.drop_through(target)
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
