"""Ingestion Service (§3.2): streaming edges into back-end GraphDBs.

The entry point of graph data into MSSG.  Front-end nodes read their share
of the edge stream in fixed-size *windows* (blocks), pay the ASCII-parsing
CPU cost of the input format, apply the configured declusterer, and ship
per-back-end blocks over keyed DataCutter streams; each back-end node hosts
a GraphDB-writer filter that stores arriving blocks.

Expressed as the DataCutter filter graph

    reader (x F copies, front-end ranks)  --keyed-->  writer (x P copies)

exactly as Figure 3.1 lays the services out.

Fault tolerance
---------------
A back-end whose device dies mid-stream no longer aborts the run.  The
writer filter converts the :class:`~repro.util.errors.DeviceFailedError`
into a death announcement on the DataCutter runtime's fault board and
keeps draining its input (counting the entries it could not store); reader
copies poll the board per window and reroute a dead back-end's shards to
the surviving members of its :class:`ReplicatedDeclusterer` chain —
``replication=1`` has no surviving holders, so the shard is dropped.  The
outcome is flagged on the report (``degraded``, ``lost_entries``,
``failed_backends``) instead of raised; ``MSSG.rebalance()`` restores full
replication afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datacutter import END_OF_STREAM, DataCutterRuntime, Filter, FilterGraph
from ..graphdb.interface import GraphDB, reject_negative_ids
from ..graphgen.stream import edge_windows, split_for_ingesters
from ..simcluster.cluster import SimCluster
from ..util.errors import ConfigError, DeviceFailedError
from .declustering import Declusterer

__all__ = ["IngestionService", "IngestReport"]


@dataclass
class IngestReport:
    """Outcome of one ingestion run."""

    seconds: float  # virtual makespan of the whole ingestion
    edges_ingested: int  # undirected edges consumed from the stream
    entries_stored: int  # directed adjacency entries written (all replicas)
    windows: int
    per_backend_entries: list[int]
    #: Copies stored of each adjacency partition (1 = unreplicated).
    replication: int = 1
    #: A back-end died mid-stream: some partitions are stored with fewer
    #: than ``replication`` copies (run ``MSSG.rebalance()`` to repair).
    degraded: bool = False
    #: Directed adjacency entries no surviving back-end holds a copy of:
    #: shards whose whole replica chain was already dead at assignment,
    #: plus in-flight entries that *every* recipient of their partition's
    #: window block failed to store.
    lost_entries: int = 0
    #: Back-end indices (0-based, not cluster ranks) that died mid-ingest.
    failed_backends: tuple[int, ...] = ()
    #: Stream batches folded into this report (1 for a one-shot ingest).
    batches: int = 1

    @property
    def edges_per_second(self) -> float:
        return self.edges_ingested / self.seconds if self.seconds else float("inf")

    def absorb(self, other: "IngestReport") -> None:
        """Fold a later stream batch's report into this accumulated one.

        Counters sum (seconds, edges, entries, windows, lost, batches; the
        per-back-end entry counts elementwise), degraded/failed-set state
        unions, and ``replication`` adopts the latest batch's value.
        """
        self.seconds += other.seconds
        self.edges_ingested += other.edges_ingested
        self.entries_stored += other.entries_stored
        self.windows += other.windows
        if len(self.per_backend_entries) == len(other.per_backend_entries):
            self.per_backend_entries = [
                a + b
                for a, b in zip(self.per_backend_entries, other.per_backend_entries)
            ]
        else:
            self.per_backend_entries = list(other.per_backend_entries)
        self.replication = other.replication
        self.degraded = self.degraded or other.degraded
        self.lost_entries += other.lost_entries
        self.failed_backends = tuple(
            sorted(set(self.failed_backends) | set(other.failed_backends))
        )
        self.batches += other.batches


@dataclass
class _ReaderResult:
    windows: int = 0
    #: Entries dropped because every holder of their partition was dead.
    lost_entries: int = 0
    #: Per-window copy record: window offset -> ``copies`` list from
    #: :meth:`Declusterer.assign_routed` (per base partition, the holders
    #: its entries were shipped to and how many).  Correlated with
    #: writer-side failures to count entries lost in flight.
    shards: dict[int, list[tuple[tuple[int, ...], int]]] = field(default_factory=dict)


@dataclass
class _WriterResult:
    stored: int = 0
    #: Entries received after this back-end's device died (not stored here;
    #: surviving replicas may still hold copies).
    unstored: int = 0
    dead: bool = False
    #: Window offsets of the blocks this back-end failed to store.
    unstored_offsets: list[int] = field(default_factory=list)


class _EdgeReader(Filter):
    """Front-end filter: parse windows, decluster, emit per-back-end blocks.

    Instantiated as one filter spec with F copies; each copy reads its
    contiguous share of the edge stream (selected by copy index).  Window
    assignment is keyed on the window's global stream offset, so the
    produced partitions are identical for every front-end count.
    """

    outputs = ("blocks",)

    def __init__(
        self,
        shares: list[np.ndarray],
        offsets: list[int],
        window_size: int,
        declusterer: Declusterer,
        ascii_input: bool,
    ):
        self.shares = shares
        self.offsets = offsets
        self.window_size = window_size
        self.declusterer = declusterer
        self.ascii_input = ascii_input

    def process(self, ctx):
        result = _ReaderResult()
        offset = self.offsets[ctx.copy_index]
        for window in edge_windows(self.shares[ctx.copy_index], self.window_size):
            result.windows += 1
            if self.ascii_input:
                # Parsing "src dst" text lines is front-end CPU work; the
                # paper calls out the ASCII-in/binary-out asymmetry (Fig 5.5).
                ctx.rank_ctx.compute(len(window) * ctx.rank_ctx.cpu.ascii_parse_seconds)
            dead = ctx.dead_copies("writer")
            parts, lost, copies = self.declusterer.assign_routed(window, dead, offset)
            result.lost_entries += lost
            result.shards[offset] = copies
            for q, part in enumerate(parts):
                if len(part):
                    ctx.write("blocks", (q, offset, part), size=16 * len(part) + 8)
            offset += len(window)
        ctx.close_output("blocks")
        return result


class _GraphDBWriter(Filter):
    """Back-end filter: store arriving blocks into this node's GraphDB.

    A device failure mid-stream is announced on the runtime's fault board
    and the filter keeps draining its input (the stream must terminate
    cleanly and in-flight blocks must be accounted), instead of raising
    through the whole ingestion.
    """

    inputs = ("blocks",)

    def __init__(self, db: GraphDB):
        self.db = db

    def process(self, ctx):
        result = _WriterResult()

        def died() -> None:
            result.dead = True
            ctx.announce_death()

        while True:
            item = yield from ctx.read("blocks")
            if item is END_OF_STREAM:
                break
            _, offset, block = item
            if result.dead:
                result.unstored += len(block)
                result.unstored_offsets.append(offset)
                continue
            try:
                self.db.store_edges(block)
                result.stored += len(block)
            except DeviceFailedError:
                died()
                result.unstored += len(block)
                result.unstored_offsets.append(offset)
        if not result.dead:
            try:
                self.db.finalize_ingest()
                self.db.flush()
            except DeviceFailedError:
                died()
        return result


class IngestionService:
    """Runs streaming ingestion on a simulated cluster.

    ``cluster`` must have ``num_frontends + num_backends`` ranks; ranks
    ``[0, F)`` are front-ends, ``[F, F+P)`` are back-ends holding ``dbs``.
    """

    def __init__(
        self,
        cluster: SimCluster,
        dbs: list[GraphDB],
        declusterer: Declusterer,
        num_frontends: int = 1,
        window_size: int = 4096,
        ascii_input: bool = True,
    ):
        if num_frontends < 1:
            raise ConfigError("need at least one front-end ingestion node")
        if declusterer.p != len(dbs):
            raise ConfigError(
                f"declusterer targets {declusterer.p} back-ends but {len(dbs)} DBs given"
            )
        if cluster.nranks < num_frontends + len(dbs):
            raise ConfigError(
                f"cluster has {cluster.nranks} ranks; need {num_frontends + len(dbs)}"
            )
        self.cluster = cluster
        self.dbs = dbs
        self.declusterer = declusterer
        self.num_frontends = num_frontends
        self.window_size = window_size
        self.ascii_input = ascii_input

    def ingest(self, edges: np.ndarray, stores: list | None = None) -> IngestReport:
        """Run one ingestion pass.

        ``stores`` substitutes the write targets while keeping partitioning,
        placement, and fault accounting identical — the streaming path hands
        in per-back-end delta-log sinks that quack like GraphDBs
        (``store_edges`` / ``finalize_ingest`` / ``flush``).
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        # The whole batch or none of it: a back-end must not store its share
        # of a batch another back-end's share makes ``store_edges`` reject.
        reject_negative_ids(edges)
        targets = stores if stores is not None else self.dbs
        F, P = self.num_frontends, len(self.dbs)
        # Per-run declusterer protocol: clear any state left by a previous
        # ingest (stale round-robin offsets / owner tables would leak into
        # this run's assignments), then run the sequential planning pass so
        # parallel window assignment is schedule-independent.
        self.declusterer.reset()
        self.declusterer.prepare(edges, self.window_size)
        shares = split_for_ingesters(edges, F)
        offsets, acc = [], 0
        for share in shares:
            offsets.append(acc)
            acc += len(share)
        graph = FilterGraph()
        graph.add_filter(
            "reader",
            lambda: _EdgeReader(
                shares, offsets, self.window_size, self.declusterer, self.ascii_input
            ),
            placement=list(range(F)),
        )
        graph.add_filter(
            "writer",
            # One writer spec with P copies; each copy binds its own DB by
            # copy index (copy q sits on rank F + q).
            lambda: _DispatchWriter(targets, F),
            placement=[F + q for q in range(P)],
        )
        graph.connect(
            "reader", "blocks", "writer", "blocks",
            policy="keyed", key_fn=lambda item: item[0],
        )
        results = DataCutterRuntime(graph, self.cluster).run()
        writers: list[_WriterResult] = list(results["writer"])
        readers: list[_ReaderResult] = list(results["reader"])
        replication = self.declusterer.replication
        failed = tuple(q for q, w in enumerate(writers) if w.dead)
        reader_lost = sum(r.lost_entries for r in readers)
        # A copy that died in flight still exists wherever another recipient
        # of the same window's partition stored its copy; entries are lost
        # only when *every* back-end their partition was shipped to failed
        # to store that window's block.
        unstored = {q: set(w.unstored_offsets) for q, w in enumerate(writers)}
        inflight_lost = 0
        for r in readers:
            for off, copies in r.shards.items():
                for holders, n in copies:
                    if holders and n and all(off in unstored[t] for t in holders):
                        inflight_lost += n
        lost = reader_lost + inflight_lost
        return IngestReport(
            seconds=self.cluster.makespan,
            edges_ingested=len(edges),
            entries_stored=sum(w.stored for w in writers),
            windows=sum(r.windows for r in readers),
            per_backend_entries=[w.stored for w in writers],
            replication=replication,
            degraded=bool(failed) or lost > 0,
            lost_entries=lost,
            failed_backends=failed,
        )


class _DispatchWriter(_GraphDBWriter):
    """Writer copy that picks its GraphDB from the copy index."""

    def __init__(self, dbs: list[GraphDB], frontends: int):
        self._dbs = dbs
        self._frontends = frontends

    def process(self, ctx):
        self.db = self._dbs[ctx.copy_index]
        result = yield from super().process(ctx)
        return result
