"""Clustering/declustering strategies for the Ingestion Service (§3.2).

A declusterer decides, for each streamed edge, which back-end GraphDB
instance stores which adjacency entries.  MSSG supports two granularities:

* **vertex-level** — all edges incident to a vertex live on one node, so a
  vertex's complete adjacency list is local to its owner; with a
  deterministic owner function (``GID % p`` or a hash) the mapping is
  globally known and BFS can route fringe vertices to owners;
* **edge-level** — each edge is an independent entity assigned round-robin;
  a vertex's adjacency list ends up scattered, so searches must broadcast
  their fringes.

The default implementations mirror the paper: "the MSSG framework provides
simple declustering techniques such as vertex- and edge-based round-robin
declustering", plus a hash variant and a window-greedy balancing variant as
the customizable-interface extension point.

Determinism contract
--------------------
One declusterer instance is shared by all F front-end reader copies, whose
window processing interleaves under the simulator's scheduler.  Stateful
strategies therefore must not key their decisions on *call order*: the
per-run protocol is ``reset()`` once, ``prepare(edges, window_size)`` once
(a sequential planning pass over the canonical global stream), and then
``assign_at(window, offset)`` per window, where ``offset`` is the window's
first-edge position in the global stream.  Given that protocol, the
partition produced for any window is a pure function of the stream — the
same for every front-end count and copy schedule.
"""

from __future__ import annotations

import abc

import numpy as np

from ..util.errors import ConfigError

__all__ = [
    "Declusterer",
    "ReplicatedDeclusterer",
    "VertexRoundRobin",
    "VertexHash",
    "EdgeRoundRobin",
    "WindowGreedy",
]

_NO_ENTRIES = np.zeros((0, 2), dtype=np.int64)


class Declusterer(abc.ABC):
    """Routes the directed adjacency entries of an edge window to back-ends.

    Data whose *primary* owner is back-end ``u`` (partition ``u``) is stored
    on its replica chain ``chains[u]`` — ``[u]`` here, the rotational
    ``{(u + j) % p : j < k}`` under :class:`ReplicatedDeclusterer` — until a
    rebalance pass installs a repaired map (:meth:`set_chains`).  Ingestion
    and query failover both read this one map.
    """

    #: True when every processor can compute any vertex's owner locally
    #: (enables owner-routed BFS instead of fringe broadcast).
    owner_known: bool = False
    #: Copies of each partition.
    replication: int = 1

    def __init__(self, num_backends: int):
        if num_backends <= 0:
            raise ConfigError(f"need at least one back-end, got {num_backends}")
        self.p = num_backends
        self.set_chains(
            [[(u + j) % self.p for j in range(self.replication)] for u in range(self.p)]
        )

    @abc.abstractmethod
    def assign(self, window: np.ndarray) -> list[np.ndarray]:
        """Split one ``(E, 2)`` undirected-edge window into per-back-end
        directed adjacency entries (``dst into adj(src)``)."""

    def assign_at(self, window: np.ndarray, offset: int | None = None) -> list[np.ndarray]:
        """Assign a window known to start at global edge index ``offset``.

        Stateless strategies ignore the offset; stateful ones use it so the
        result is independent of which reader copy presents the window (and
        in which order).  ``offset=None`` falls back to :meth:`assign`'s
        call-order semantics.
        """
        return self.assign(window)

    def reset(self) -> None:
        """Clear per-run state; called once at the start of every ingest."""

    def prepare(self, edges: np.ndarray, window_size: int) -> None:
        """Sequential planning pass over the canonical global stream.

        Called once per ingest, after :meth:`reset` and before any
        ``assign_at``.  Strategies whose decisions depend on what was seen
        *earlier in the stream* build their summary tables here, so the
        parallel assignment phase is a pure lookup.
        """

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup (only meaningful when owner_known)."""
        raise NotImplementedError(f"{type(self).__name__} has no global owner map")

    # -- chain map ----------------------------------------------------------

    def set_chains(self, chains) -> None:
        """Install a chain map (e.g. repaired by a rebalance pass)."""
        chains = [list(c) for c in chains]
        if len(chains) != self.p:
            raise ConfigError(f"chain map needs {self.p} chains, got {len(chains)}")
        for u, chain in enumerate(chains):
            if len(set(chain)) != len(chain):
                raise ConfigError(f"duplicate holder in chain of partition {u}: {chain}")
            for t in chain:
                if not 0 <= t < self.p:
                    raise ConfigError(f"chain of partition {u} names back-end {t}")
        self.chains = chains
        # Per-holder partitions, in chain-position order.
        tagged: list[list[tuple[int, int]]] = [[] for _ in range(self.p)]
        for u, chain in enumerate(chains):
            for pos, t in enumerate(chain):
                tagged[t].append((pos, u))
        self._holdings = [[u for _, u in sorted(h)] for h in tagged]

    def chain_map(self) -> tuple[tuple[int, ...], ...]:
        """Immutable snapshot of the holder chains, for query-side routing."""
        return tuple(tuple(c) for c in self.chains)

    def replica_chain(self, primary: int) -> list[int]:
        """The ranks storing a copy of ``primary``'s partition, in order."""
        return list(self.chains[primary])

    @property
    def effective_replication(self) -> int:
        """Copies of the worst-covered partition under the current chains."""
        return min(len(c) for c in self.chains)

    def _partitions(self, window: np.ndarray, offset: int | None) -> list[np.ndarray]:
        """Per-partition entries of one window (``[u]`` goes to ``chains[u]``)."""
        return self.assign_at(window, offset)

    def _merge(self, parts: list[np.ndarray]) -> list[np.ndarray]:
        return [_stack([parts[u] for u in held]) for held in self._holdings]

    def assign_routed(
        self, window: np.ndarray, dead=frozenset(), offset: int | None = None
    ) -> tuple[list[np.ndarray], int, list[tuple[tuple[int, ...], int]]]:
        """Like :meth:`assign_at`, but skipping ``dead`` back-ends.

        Each partition goes to the alive members of its chain.  Returns
        ``(parts, lost, copies)``: ``lost`` counts entries with no alive
        holder — without replication, those bound for a dead back-end (the
        ``replication=1`` degraded mode of ingestion-time failover) — and
        ``copies[u]`` is ``(holders, n)``, the back-ends partition ``u``'s
        ``n`` entries were actually shipped to.  The caller correlates
        ``copies`` with writer-side failures to count entries that died in
        flight on every recipient.
        """
        parts = self._partitions(window, offset)
        chains = [[t for t in c if t not in dead] for c in self.chains] if dead else self.chains
        copies = [(tuple(c), len(part)) for c, part in zip(chains, parts)]
        lost = sum(len(part) for c, part in zip(chains, parts) if not c)
        if not dead:
            # The exact merge (and vstack order) of ``assign_at``.
            return self._merge(parts), lost, copies
        collected: list[list[np.ndarray]] = [[] for _ in range(self.p)]
        for c, part in zip(chains, parts):
            if len(part):
                for t in c:
                    collected[t].append(part)
        return [_stack(c) for c in collected], lost, copies


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    return np.vstack(parts) if parts else _NO_ENTRIES


def _both_directions(window: np.ndarray) -> np.ndarray:
    return np.vstack([window, window[:, ::-1]])


class VertexRoundRobin(Declusterer):
    """Vertex granularity with the globally known ``GID % p`` map."""

    owner_known = True

    def assign(self, window: np.ndarray) -> list[np.ndarray]:
        entries = _both_directions(np.asarray(window, dtype=np.int64))
        owners = entries[:, 0] % self.p
        return [entries[owners == q] for q in range(self.p)]

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        return np.asarray(vertices, dtype=np.int64) % self.p


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finalizer), vectorized."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class VertexHash(Declusterer):
    """Vertex granularity with a hashed owner map (breaks id-locality skew)."""

    owner_known = True

    def assign(self, window: np.ndarray) -> list[np.ndarray]:
        entries = _both_directions(np.asarray(window, dtype=np.int64))
        owners = self.owner_of(entries[:, 0])
        return [entries[owners == q] for q in range(self.p)]

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        vs = np.asarray(vertices, dtype=np.int64)
        return (_splitmix64(vs) % np.uint64(self.p)).astype(np.int64)


class EdgeRoundRobin(Declusterer):
    """Edge granularity: the i-th streamed edge goes, whole, to node i % p.

    Both directions of the edge are stored on that node so the edge is
    locally searchable, but a vertex's adjacency list is scattered across
    nodes — the configuration that forces fringe broadcast in Algorithm 1.
    """

    owner_known = False

    def __init__(self, num_backends: int):
        super().__init__(num_backends)
        self._counter = 0

    def reset(self) -> None:
        self._counter = 0

    def assign(self, window: np.ndarray) -> list[np.ndarray]:
        window = np.asarray(window, dtype=np.int64)
        parts = self._assign_from(window, self._counter)
        self._counter += len(window)
        return parts

    def assign_at(self, window: np.ndarray, offset: int | None = None) -> list[np.ndarray]:
        if offset is None:
            return self.assign(window)
        # The i-th edge of the *stream* goes to node i % p: keyed on the
        # window's global offset, not on how many windows this instance
        # happened to see first — identical for every front-end count.
        return self._assign_from(np.asarray(window, dtype=np.int64), offset)

    def _assign_from(self, window: np.ndarray, start: int) -> list[np.ndarray]:
        idx = (np.arange(len(window)) + start) % self.p
        out = []
        for q in range(self.p):
            part = window[idx == q]
            out.append(_both_directions(part) if len(part) else _NO_ENTRIES)
        return out


class WindowGreedy(Declusterer):
    """Vertex granularity with greedy first-touch + load balancing.

    The "smarter clustering" extension point of §3.2: previously unseen
    vertices are assigned to the currently least-loaded back-end, and
    subsequent edges follow the sticky assignment.  The summary information
    is the vertex→owner table accumulated so far, so the map is globally
    known (ingestion shares it with the query side).

    The table is order-sensitive, so under the ingestion protocol it is
    built once by :meth:`prepare` — a sequential pass over the canonical
    global window stream — and the parallel ``assign_at`` phase is a pure
    table lookup, independent of reader-copy interleaving.  Standalone
    ``assign`` calls (no prepare) keep the legacy streaming behavior.
    """

    owner_known = True

    def __init__(self, num_backends: int):
        super().__init__(num_backends)
        self._owner: dict[int, int] = {}
        self._load = np.zeros(num_backends, dtype=np.int64)
        self._prepared = False
        # Sorted-array mirror of ``_owner`` for vectorized lookups.
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.int64)
        self._table_dirty = False

    def reset(self) -> None:
        self._owner.clear()
        self._load[:] = 0
        self._prepared = False
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.int64)
        self._table_dirty = False

    def prepare(self, edges: np.ndarray, window_size: int) -> None:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if window_size <= 0:
            raise ConfigError(f"window_size must be positive, got {window_size}")
        for start in range(0, len(edges), window_size):
            self._greedy(_both_directions(edges[start : start + window_size]))
        self._prepared = True

    def _greedy(self, entries: np.ndarray) -> np.ndarray:
        """First-touch least-loaded assignment; updates table and loads."""
        owners = np.empty(len(entries), dtype=np.int64)
        table = self._owner
        for i, src in enumerate(entries[:, 0]):
            src = int(src)
            q = table.get(src)
            if q is None:
                q = int(np.argmin(self._load))
                table[src] = q
                self._table_dirty = True
            self._load[q] += 1
            owners[i] = q
        return owners

    def _table_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._table_dirty:
            keys = np.fromiter(self._owner.keys(), dtype=np.int64, count=len(self._owner))
            vals = np.fromiter(self._owner.values(), dtype=np.int64, count=len(self._owner))
            order = np.argsort(keys)
            self._keys, self._vals = keys[order], vals[order]
            self._table_dirty = False
        return self._keys, self._vals

    def assign(self, window: np.ndarray) -> list[np.ndarray]:
        entries = _both_directions(np.asarray(window, dtype=np.int64))
        if self._prepared:
            owners = self._lookup(entries[:, 0])
        else:
            owners = self._greedy(entries)
        return [entries[owners == q] for q in range(self.p)]

    def _lookup(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized table lookup; unseen vertices fall back to greedy."""
        keys, vals = self._table_arrays()
        if not len(keys):
            return self._greedy(np.column_stack([vertices, vertices]))
        idx = np.minimum(np.searchsorted(keys, vertices), len(keys) - 1)
        known = keys[idx] == vertices
        owners = np.where(known, vals[idx], -1)
        if not known.all():
            # Vertices outside the prepared stream (standalone use only).
            missing = np.flatnonzero(~known)
            vs = vertices[missing]
            owners[missing] = self._greedy(np.column_stack([vs, vs]))
        return owners

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        vs = np.asarray(vertices, dtype=np.int64)
        if not len(vs):
            return vs.copy()
        keys, vals = self._table_arrays()
        if not len(keys):
            raise ConfigError(f"vertex {int(vs[0])} was never ingested")
        idx = np.minimum(np.searchsorted(keys, vs), len(keys) - 1)
        known = keys[idx] == vs
        if not known.all():
            missing = int(vs[np.flatnonzero(~known)[0]])
            raise ConfigError(f"vertex {missing} was never ingested")
        return vals[idx]


class ReplicatedDeclusterer(Declusterer):
    """k-copy wrapper around any base declusterer (rotational declustering).

    Partition ``u`` is stored on the rotational chain ``{(u + j) % p : j <
    k}``, so every partition survives the loss of any ``k - 1`` back-ends
    and the query side can compute a surviving replica for any shard from
    the owner map alone.  ``owner_of`` keeps reporting the primary owner —
    routing around dead replicas is the failover protocol's job, so a
    healthy cluster behaves exactly like the unreplicated base declusterer
    (just with k× the stored bytes).
    """

    def __init__(self, base: Declusterer, replication: int):
        if isinstance(base, ReplicatedDeclusterer):
            raise ConfigError("cannot nest ReplicatedDeclusterer wrappers")
        if not 1 <= replication <= base.p:
            raise ConfigError(
                f"replication must be in [1, {base.p} back-ends], got {replication}"
            )
        self.base = base
        self.replication = replication
        self.owner_known = base.owner_known
        super().__init__(base.p)

    # -- protocol forwarding -------------------------------------------------

    def reset(self) -> None:
        self.base.reset()

    def prepare(self, edges: np.ndarray, window_size: int) -> None:
        self.base.prepare(edges, window_size)

    def assign(self, window: np.ndarray) -> list[np.ndarray]:
        return self._merge(self.base.assign(window))

    def assign_at(self, window: np.ndarray, offset: int | None = None) -> list[np.ndarray]:
        return self._merge(self.base.assign_at(window, offset))

    def _partitions(self, window: np.ndarray, offset: int | None) -> list[np.ndarray]:
        return self.base.assign_at(window, offset)

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        return self.base.owner_of(vertices)
