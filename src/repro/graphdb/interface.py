"""The GraphDB Service interface (paper Listing 3.1).

The paper's central API design: *"the smallest complete set of graph
operations possible"* — store edges, get/set per-vertex metadata, and fetch
a vertex's distance-1 neighbors filtered by their metadata.  None of these
methods communicate; every GraphDB instance operates purely on the data
local to its back-end node, and requesting the adjacency list of a vertex
that is not stored locally returns the empty set (which Algorithms 1 and 2
rely on).

The Java signatures::

    void storeEdges(List<Edge> edges)
    int  getMetadata(long vertex)
    void setMetadata(long vertex, int metadata)
    void getAdjacencyListUsingMetadata(long vertex, <buffer> adjlist,
            int metadata, int operation)

map to :class:`GraphDB` below, with edges as ``(E, 2)`` int64 arrays.  The
prototype's ``adjlist`` is an out-parameter, a growable buffer of Java longs
the caller passes in; here the filtered neighbours are the return value, one
int64 array (``get_adjacency_list_using_metadata(vertex, metadata, op)``).
One batch method is added beyond the paper's listing — ``expand_fringe`` —
because StreamDB (§4.1.5) *requires* posting all fringe vertices at once so
it can answer a whole BFS level in a single scan.  It is the one bulk
top-down contract: the whole fringe's neighbours come back as one flat int64
array, each backend answering through its own plan.

Bulk adjacency is a CSR batch: ``scan_adjacency`` — the storage-order plan
behind bottom-up BFS levels and vertex-program supersteps — yields
:class:`AdjacencyBatch` values, so its consumers do array work per batch
instead of Python work per vertex.  Every producer keeps four rules
(and charges as ``scan_adjacency`` documents — storage in the scan, edges
by the caller):

* **No empty segment** — a vertex with no neighbours never appears (which
  makes ``reduceat`` over ``offsets[:-1]`` safe), and no batch is empty.
* **A list may arrive in pieces** — a vertex appears at most once *per
  batch* but may recur across the batches of one sweep: its segments, in
  delivery order, are its base list in storage/chain order, and its stream
  overlay entries (by batch seq, each batch sorted by destination) come
  last.  Consumers that need whole lists say so with
  :meth:`AdjacencyBatch.grouped`.
* **``done`` stops a list** — a consumer may pass a list and append int64
  arrays of vertex ids to it between batches: "deliver nothing more for
  these" (the claim scan passes its own list of claims, so saying it costs
  nothing).  Piecewise producers drop the vertex from their walk (what is
  never read is never charged); complete-list producers ignore it; the
  overlay batch is filtered by it.
* **Flush before raise** — what a storage walk handed out before a fault
  stays delivered before the error propagates: that work was done.

Batch order is the producer's storage order — it becomes claim order, hence
the next level's fringe order: grDB sweeps level-synchronously (a batch per
round, level and run of blocks, ascending address within it), StreamDB
hands out one batch per log replay and Array one CSR gather (both vertex
ascending, complete lists).  BerkeleyDB and MySQL (one walk over their
chunk rows in key order, :mod:`.chunked`) and HashMap keep a per-record walk
(``_walk_adjacency``) whose output the base class packs:
each record charges its own float cost on the virtual clock — a leaf page,
a row parse, a hash probe — and one summed charge would round differently.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..simcluster.costmodel import CpuProfile
from ..simcluster.virtualtime import VirtualClock
from ..util.errors import GraphStorageException
from .metadata import InMemoryMetadata, MetadataStore

__all__ = [
    "AdjacencyBatch",
    "GraphDB",
    "GraphDBStats",
    "StagedEdges",
    "OP_ALL",
    "OP_NEQ",
    "OP_EQ",
    "OP_GT",
    "OP_LT",
    "gather_segments",
    "reject_negative_ids",
]

# Metadata filter operations, verbatim from Listing 3.1:
OP_ALL = -2  # ignore metadata and return all neighbor vertices
OP_NEQ = -1  # neighbor's metadata != input metadata
OP_EQ = 0  # neighbor's metadata == input metadata
OP_GT = 1  # neighbor's metadata > input metadata
OP_LT = 2  # neighbor's metadata < input metadata

_VALID_OPS = (OP_ALL, OP_NEQ, OP_EQ, OP_GT, OP_LT)

_EMPTY = np.empty(0, dtype=np.int64)


def reject_negative_ids(edges: np.ndarray) -> None:
    """Raise unless every id of the ``(E, 2)`` edge array is non-negative:
    ``store_edges``' check, run once on a whole batch before ingestion
    plans any of it."""
    if len(edges) and edges.min() < 0:
        raise GraphStorageException("negative vertex id in store_edges")


def gather_segments(
    values: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the segments ``values[starts[i]:starts[i] + lens[i]]``;
    returns the flat result and its ``len(lens) + 1`` segment bounds."""
    bounds = np.concatenate(([0], np.cumsum(lens)))
    src = np.repeat(starts - bounds[:-1], lens) + np.arange(bounds[-1])
    return values[src], bounds


class AdjacencyBatch:
    """A CSR slice of adjacency lists — ``GraphDB``'s one bulk value type.

    ``neighbors[offsets[i]:offsets[i + 1]]`` is ``vertices[i]``'s list; all
    three arrays are int64 and no segment is empty (module doc).  Consumers
    treat the arrays as read-only: a batch may be shared between queries.
    """

    __slots__ = ("vertices", "offsets", "neighbors", "_index")

    def __init__(self, vertices: np.ndarray, offsets: np.ndarray, neighbors: np.ndarray):
        self.vertices = vertices
        self.offsets = offsets
        self.neighbors = neighbors
        self._index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def nonempty(cls, vertices, offsets, neighbors) -> "AdjacencyBatch":
        """A batch from CSR arrays that may hold empty segments (dropped)."""
        keep = offsets[1:] > offsets[:-1]
        if not keep.all():
            vertices = vertices[keep]
            offsets = np.append(offsets[:-1][keep], offsets[-1])
        return cls(vertices, offsets, neighbors)

    @classmethod
    def from_lists(cls, vertices: list, lists: list) -> "AdjacencyBatch":
        """Pack per-vertex neighbour arrays (none empty) into one batch."""
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([len(lst) for lst in lists], out=offsets[1:])
        return cls(np.array(vertices, dtype=np.int64), offsets, np.concatenate(lists))

    @classmethod
    def from_edges(cls, edges: np.ndarray) -> "AdjacencyBatch":
        """Group an ``(E, 2)`` int64 edge array by source: vertices
        ascending, each list in the edges' own order (one stable sort)."""
        order = np.argsort(edges[:, 0], kind="stable")
        srcs = edges[order, 0]
        starts = np.flatnonzero(np.diff(srcs, prepend=-1))  # ids are >= 0
        return cls(srcs[starts], np.append(starts, len(srcs)), edges[order, 1])

    @classmethod
    def concat(cls, batches) -> "AdjacencyBatch":
        """One batch holding every segment of ``batches``, in order."""
        batches = list(batches)
        if not batches:
            return cls(_EMPTY, np.zeros(1, dtype=np.int64), _EMPTY)
        shifts = np.cumsum([0] + [len(b.neighbors) for b in batches])
        offsets = [b.offsets[:-1] + shift for b, shift in zip(batches, shifts)]
        return cls(
            np.concatenate([b.vertices for b in batches]),
            np.concatenate(offsets + [shifts[-1:]]),
            np.concatenate([b.neighbors for b in batches]),
        )

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __iter__(self):
        """``(vertex, neighbors)`` pairs, for the per-vertex consumers left."""
        bounds = self.offsets.tolist()
        for v, lo, hi in zip(self.vertices.tolist(), bounds, bounds[1:]):
            yield v, self.neighbors[lo:hi]

    def segments(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lens)`` of each wanted vertex's list in ``neighbors``
        (length 0 where this batch does not hold the vertex): one
        ``searchsorted`` over a sorted-vertex index built on first use."""
        if self._index is None:
            order = np.argsort(self.vertices, kind="stable")
            # One zero-length slot past the end, for ids beyond every key.
            self._index = tuple(
                np.append(a[order], 0) for a in (self.vertices, self.offsets[:-1], self.degrees)
            )
        keys, starts, lens = self._index
        pos = np.searchsorted(keys[:-1], wanted)
        return starts[pos], np.where(keys[pos] == wanted, lens[pos], 0)

    @classmethod
    def stack(cls, vertices: np.ndarray, *parts: "AdjacencyBatch") -> "AdjacencyBatch":
        """The lists of ``vertices``, in that order: each is the first part's
        segment for the vertex, then the next part's (base, then overlay).
        Vertices no part holds are dropped."""
        spans = [part.segments(vertices) for part in parts]
        offsets = np.concatenate(([0], np.cumsum(sum(lens for _, lens in spans))))
        neighbors = np.empty(offsets[-1], dtype=np.int64)
        at = offsets[:-1]
        for part, (starts, lens) in zip(parts, spans):
            first = np.cumsum(lens) - lens  # of each segment, within this part's share
            ramp = np.arange(lens.sum())
            neighbors[np.repeat(at - first, lens) + ramp] = part.neighbors[
                np.repeat(starts - first, lens) + ramp
            ]
            at = at + lens
        return cls.nonempty(vertices, offsets, neighbors)

    def select(self, wanted: np.ndarray) -> "AdjacencyBatch":
        """The ``wanted`` vertices this batch holds, in ``wanted`` order."""
        return AdjacencyBatch.stack(wanted, self)

    def grouped(self) -> "AdjacencyBatch":
        """Whole lists from a sweep's pieces: each vertex once, ascending,
        its segments joined in delivery order (one stable sort, one gather)."""
        order = np.argsort(self.vertices, kind="stable")
        vertices = self.vertices[order]
        neighbors, bounds = gather_segments(
            self.neighbors, self.offsets[:-1][order], self.degrees[order]
        )
        first = np.flatnonzero(np.diff(vertices, prepend=-1))  # ids are >= 0
        return AdjacencyBatch(vertices[first], np.append(bounds[first], bounds[-1]), neighbors)


class StagedEdges:
    """An in-memory backend's stored edges (Array, HashMap): whole ``(E, 2)``
    chunks, packed on the first read after a store into one
    :class:`AdjacencyBatch` by one stable sort by source — each list in
    arrival order, element for element what appending edge by edge builds."""

    def __init__(self):
        self._chunks = [np.empty((0, 2), dtype=np.int64)]
        self._batch: AdjacencyBatch | None = None
        self._lists: dict[int, np.ndarray] | None = None

    def add(self, edges: np.ndarray) -> None:
        """Stage a copy of a validated chunk; the next read packs again."""
        if len(edges):
            self._chunks.append(edges.copy())
            self._batch = self._lists = None

    def _pack(self) -> AdjacencyBatch:
        self._chunks = [np.concatenate(self._chunks)]  # the one chunk a re-pack extends
        return AdjacencyBatch.from_edges(self._chunks[0])

    def batch(self) -> AdjacencyBatch:
        """Every staged list, vertices ascending (sparse: no dense id array)."""
        if self._batch is None:
            self._batch = self._pack()
        return self._batch

    def adjacency(self, vertex: int) -> np.ndarray:
        """``vertex``'s list: one probe of a dict of views built per pack."""
        if self._lists is None:
            self._lists = dict(self.batch())
        return self._lists.get(vertex, _EMPTY)


@dataclass
class GraphDBStats:
    """Operation counters every backend maintains."""

    edges_stored: int = 0
    edges_scanned: int = 0  # adjacency entries returned/visited
    adjacency_requests: int = 0
    store_calls: int = 0


class GraphDB(abc.ABC):
    """Abstract base for all six GraphDB Service backends.

    Subclasses implement :meth:`_store_edges` and :meth:`_get_adjacency`
    and may override :meth:`_expand_fringe`, :meth:`_scan_adjacency` and
    :meth:`_id_bound`; the base class provides metadata handling,
    metadata-filtered adjacency, batch fringe expansion, and bookkeeping.  It is also the one id-space boundary: the public reads
    hand the read hooks only ids in ``[0, _id_bound())``, and never an empty
    fringe — an id outside counts its adjacency request and answers empty
    without reaching the base store — so no hook tests an id's sign or
    range.  ``clock``/``cpu``
    wire the instance to its simulated host so CPU work is charged; both
    default to private instances for standalone use.
    """

    #: Human-readable backend name, e.g. "grDB"; set by subclasses.
    name: str = "abstract"

    def __init__(
        self,
        clock: VirtualClock | None = None,
        cpu: CpuProfile | None = None,
        metadata: MetadataStore | None = None,
        batch_io: bool = True,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        self.cpu = cpu if cpu is not None else CpuProfile()
        self.metadata = metadata if metadata is not None else InMemoryMetadata()
        self.stats = GraphDBStats()
        # In-memory out-degree census, maintained at store time: its keys
        # are the local sources, its values their out-degrees.  The direction
        # controller prices fringes and ``local_vertices`` enumerates without
        # touching storage; a 2006-era deployment would keep the same
        # counters in the ingest path, so no virtual time is charged for it.
        # A store that adopts on-disk state rebuilds it at open with one
        # storage sweep (``_census_from_storage``), so it always covers the
        # whole base store.
        self._degree: dict[int, int] = {}
        #: Use the batched/coalescing fringe expansion path where a backend
        #: has one (grDB, BerkeleyDB, MySQL).  ``False`` restores the
        #: per-vertex loop of the paper's prototype — the configuration the
        #: chapter-5 reproduction figures measure.  Both paths return
        #: byte-identical adjacency lists; only the access plan (and thus
        #: virtual time) differs.
        self.batch_io = batch_io
        #: Streaming-mode delta overlay (``services.streaming.DeltaOverlay``):
        #: committed-but-uncompacted stream batches, merged into every public
        #: read.  ``None`` outside streaming deployments — the read path then
        #: short-circuits with one attribute check.
        self._stream_overlay = None
        #: Snapshot id pinned around a query slice by the multiplexer
        #: (``None``: every overlay batch, all of them published outside a
        #: drain).  Gates which overlay batches the reads above may see.
        self._stream_snap: int | None = None

    # -- paper interface ----------------------------------------------------

    def store_edges(self, edges) -> None:
        """Store directed adjacency entries ``dst in adj(src)``.

        The ingestion service emits both directions of each undirected
        edge, each to the owner of its source endpoint.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        reject_negative_ids(edges)
        self._store_edges(edges)
        if len(edges):
            self._census_add(*np.unique(edges[:, 0], return_counts=True))
        self.stats.edges_stored += len(edges)
        self.stats.store_calls += 1

    def get_metadata(self, vertex: int) -> int:
        return self.metadata.get(vertex)

    def set_metadata(self, vertex: int, metadata: int) -> None:
        self.metadata.set(vertex, metadata)

    def get_adjacency_list_using_metadata(
        self, vertex: int, metadata: int, operation: int
    ) -> np.ndarray:
        """``vertex``'s neighbors passing the metadata filter."""
        if operation not in _VALID_OPS:
            raise GraphStorageException(f"unknown metadata operation {operation}")
        neighbors = self.get_adjacency(vertex)
        if operation == OP_ALL or len(neighbors) == 0:
            return neighbors
        md = self.metadata.get_many(neighbors)
        if operation == OP_NEQ:
            mask = md != metadata
        elif operation == OP_EQ:
            mask = md == metadata
        elif operation == OP_GT:
            mask = md > metadata
        else:
            mask = md < metadata
        return neighbors[mask]

    # -- convenience / batch ---------------------------------------------------

    def _overlay_view(self):
        """The stream-overlay read view at the pinned snapshot (or None)."""
        overlay = self._stream_overlay
        if overlay is None:
            return None
        return overlay.view(self._stream_snap)

    def _id_bound(self) -> int:
        """One past the largest vertex id the base store can hold: any
        non-negative int64 unless a backend says less."""
        return 2**63

    def _in_space(self, vs: np.ndarray) -> np.ndarray:
        """The ids of ``vs`` the base store can hold, in order — ``vs``
        itself, uncopied, when that is all of them."""
        inside = vs.view(np.uint64) < self._id_bound()  # negatives wrap high
        return vs if inside.all() else vs[inside]

    def _base_adjacency(self, vertex: int) -> np.ndarray:
        """``get_adjacency`` over the base store only (no stream overlay)."""
        neighbors = self._get_adjacency(vertex)
        self.stats.adjacency_requests += 1
        self.stats.edges_scanned += len(neighbors)
        self.clock.advance(len(neighbors) * self.cpu.edge_visit_seconds)
        return neighbors

    def get_adjacency(self, vertex: int) -> np.ndarray:
        """All locally stored neighbors of ``vertex`` (empty if not local)."""
        vertex = int(vertex)
        if 0 <= vertex < self._id_bound():
            neighbors = self._base_adjacency(vertex)
        else:
            self.stats.adjacency_requests += 1
            neighbors = _EMPTY
        view = self._overlay_view()
        if view is None:
            return neighbors
        extra = view.adjacency(vertex)
        if not len(extra):
            return neighbors
        self.stats.edges_scanned += len(extra)
        self.clock.advance(len(extra) * self.cpu.edge_visit_seconds)
        return np.concatenate([neighbors, extra]) if len(neighbors) else extra

    def _expand_fringe(self, vertices: np.ndarray) -> np.ndarray:
        """Base-store fringe expansion (overridden per backend).

        Default: one adjacency request per vertex (Array's and HashMap's
        plan, and BerkeleyDB's and MySQL's with ``batch_io`` off).
        """
        lists = [self._base_adjacency(v) for v in vertices.tolist()]
        return np.concatenate(lists)

    def _account_fringe(self, lens: np.ndarray) -> None:
        """Count a fringe answer whose per-vertex lists are ``lens`` long:
        one request per vertex and, in fringe order, one ``len ·
        edge_visit_seconds`` each."""
        self.stats.adjacency_requests += len(lens)
        self.stats.edges_scanned += int(lens.sum())
        self.clock.advance_each(lens * self.cpu.edge_visit_seconds)

    def expand_fringe(self, vertices) -> np.ndarray:
        """The neighbors of every fringe vertex, as one int64 array.

        The base store answers through the backend's own plan
        (:meth:`_expand_fringe`): per-vertex lists in fringe order,
        duplicates kept, except StreamDB's, which come once per wanted
        vertex in record order — record by record, vertex ascending within
        one — for a raw and a compressed log alike.  Any visible
        stream-overlay entries follow from RAM.  BFS levels are
        unaffected by the ordering (level sets are order-independent).
        """
        vs = np.asarray(vertices, dtype=np.int64)
        view = self._overlay_view()
        base = self._in_space(vs)
        self.stats.adjacency_requests += len(vs) - len(base)
        neighbors = self._expand_fringe(base) if len(base) else _EMPTY
        if view is None:
            return neighbors
        extra = view.fringe(vs)
        if not len(extra):
            return neighbors
        self.stats.edges_scanned += len(extra)
        self.clock.advance(len(extra) * self.cpu.edge_visit_seconds)
        return np.concatenate((neighbors, extra))

    def _census_add(self, vertices: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts`` to the out-degree census of ``vertices`` — add, never
        set: a vertex recurs across ingest windows and across a sweep's pieces."""
        for v, c in zip(vertices.tolist(), counts.tolist()):
            self._degree[v] = self._degree.get(v, 0) + c

    def _census_from_storage(self, vertices=None) -> None:
        """Rebuild the census from what storage holds: one storage-order
        sweep of ``vertices`` (``None``: the whole store), run once by a
        store that adopted on-disk state at open and charged there.  The
        entries found count as stored, so ``stats.edges_stored`` is the
        census's sum on every store."""
        for batch in self._scan_adjacency(vertices):
            self._census_add(batch.vertices, batch.degrees)
            self.stats.edges_stored += int(batch.degrees.sum())

    def degree_many(self, vertices) -> np.ndarray:
        """Locally stored out-degree of each vertex (0 if not local).

        Served from the in-memory census; costs no virtual time (see
        ``_degree``).  Used by the direction controller to price a
        top-down expansion of the fringe.  A reopened store counts what it
        held before the reopen too: its census was rebuilt at open.
        """
        vs = np.asarray(vertices, dtype=np.int64)
        out = np.fromiter(
            map(self._degree.get, vs.tolist(), repeat(0)), dtype=np.int64, count=len(vs)
        )
        view = self._overlay_view()
        if view is not None:
            out = out + view.degrees(vs)
        return out

    def _walk_adjacency(self, vertices=None):
        """Per-record base-store walk: ``(vertex, neighbors)`` pairs in
        storage order (the chunk store overrides with one pass over its rows
        in key order)."""
        if vertices is None:
            vs = self._local_vertices()
        else:
            vs = np.unique(np.asarray(vertices, dtype=np.int64))
        for v in vs.tolist():
            yield v, self._get_adjacency(v)

    def _scan_adjacency(self, vertices=None, done=None):
        """Base-store storage-order scan (overridden by backends that
        produce batches natively); here the per-record walk, packed —
        complete lists, so ``done`` is ignored."""
        vs: list[int] = []
        lists: list[np.ndarray] = []
        try:
            for v, neighbors in self._walk_adjacency(vertices):
                if len(neighbors):
                    vs.append(v)
                    lists.append(neighbors)
        finally:
            # Flush before raise: what the walk handed out before a fault
            # was read (and charged), so the consumer gets to count it.
            if vs:
                yield AdjacencyBatch.from_lists(vs, lists)

    def scan_adjacency(self, vertices=None, done=None):
        """Yield :class:`AdjacencyBatch` values in the backend's storage order.

        The bottom-up BFS access plan: instead of one random adjacency
        request per vertex, walk storage sequentially and hand the wanted
        vertices' lists to the caller (``vertices=None``: all local ones).
        Each backend picks its cheapest sequential plan — grDB walks level
        files in block order, every block once, StreamDB replays its log,
        BerkeleyDB the leaf chain, MySQL one range statement, Array/HashMap
        memory order.

        A vertex may recur across the batches of one sweep, never within a
        batch: its segments in delivery order are its list (module doc).
        ``done`` is a list the consumer may append arrays of vertex ids to
        between batches — nothing more is delivered for those vertices, and
        grDB stops reading their chains.

        Charges storage I/O and per-structure CPU exactly like the access
        it models, but **not** per-edge visit time — the caller owns that,
        because bottom-up claims stop at the first fringe parent and only
        examined entries cost CPU (early-exit accounting).  For the same
        reason ``stats.edges_scanned`` is the caller's responsibility.

        Visible stream-overlay batches merge in last: after the base sweep,
        one batch holds the overlay entries of every wanted vertex not
        ``done`` by then, ascending.  Claims depend only on membership, so
        answers match a store holding the same edges natively.
        """
        view = self._overlay_view()
        base = vertices
        if vertices is not None:
            base = self._in_space(np.asarray(vertices, dtype=np.int64))
        if base is None or len(base):
            yield from self._scan_adjacency(base, done)
        if view is None:
            return
        rest = view.batch.vertices
        if vertices is not None:
            rest = rest[np.isin(rest, vertices)]
        if done:
            rest = rest[~np.isin(rest, np.concatenate(done))]
        if len(rest):
            yield view.batch.select(rest)

    def local_vertices(self) -> np.ndarray:
        """Sorted global ids of vertices with locally stored adjacency.

        Not part of the paper's Listing 3.1, but required by the first
        bottom-up BFS level and by whole-graph analyses (connected
        components, defragmentation sweeps).  Served from the census's keys
        at no virtual time, as ``degree_many`` is, on a fresh and a reopened
        store alike.  Stream-overlay sources union in so
        streamed-but-uncompacted vertices are enumerable too.
        """
        base = self._local_vertices()
        view = self._overlay_view()
        if view is None:
            return base
        extra = view.vertices()
        if not len(extra):
            return base
        return np.union1d(base, extra)

    def _local_vertices(self) -> np.ndarray:
        """The base store's sources, sorted: the census's keys."""
        return np.sort(np.fromiter(self._degree, dtype=np.int64, count=len(self._degree)))

    # -- lifecycle -----------------------------------------------------------

    def finalize_ingest(self) -> None:
        """Called once after all edges are stored (e.g. Array builds CSR)."""

    def flush(self) -> None:
        """Persist any cached state."""

    def commit_token(self) -> int | None:
        """The store's durable commit counter, or ``None`` if it has none.

        It advances exactly when a flush commits, all-or-nothing, so "did a
        crashed compaction's flush commit?" is an integer comparison at
        recovery (:meth:`~repro.storage.deltalog.DeltaLog.resolve_intent`).
        Only checksummed grDB and StreamDB keep one, in their commit root.
        """
        return None

    def close(self) -> None:
        self.flush()

    # -- backend hooks -----------------------------------------------------------

    @abc.abstractmethod
    def _store_edges(self, edges: np.ndarray) -> None:
        """Store validated ``(E, 2)`` directed adjacency entries."""

    @abc.abstractmethod
    def _get_adjacency(self, vertex: int) -> np.ndarray:
        """Return locally stored neighbors of ``vertex`` as int64 array."""
