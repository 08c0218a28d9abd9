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
declustering", plus a hash variant; :class:`Declusterer` is the
customizable-interface extension point.

A declusterer holds no per-run state: the partition of a window is a pure
function of the window and of its first edge's position in the global
stream, so it is the same for every front-end count and copy schedule.
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
    def assign(self, window: np.ndarray, offset: int) -> list[np.ndarray]:
        """Split one ``(E, 2)`` undirected-edge window, whose first edge is
        edge ``offset`` of the global stream, into per-partition directed
        adjacency entries (``dst into adj(src)``)."""

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

    def _partitions(self, window: np.ndarray, offset: int) -> list[np.ndarray]:
        """Per-partition entries of one window (``[u]`` goes to ``chains[u]``)."""
        return self.assign(window, offset)

    def _merge(self, parts: list[np.ndarray]) -> list[np.ndarray]:
        return [_stack([parts[u] for u in held]) for held in self._holdings]

    def assign_routed(
        self, window: np.ndarray, offset: int, dead=frozenset()
    ) -> tuple[list[np.ndarray], int, list[tuple[tuple[int, ...], int]]]:
        """Like :meth:`assign`, but per back-end and skipping ``dead`` ones.

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
            # The exact merge (and vstack order) of a healthy ingest.
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

    def assign(self, window: np.ndarray, offset: int) -> list[np.ndarray]:
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

    def assign(self, window: np.ndarray, offset: int) -> list[np.ndarray]:
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

    def assign(self, window: np.ndarray, offset: int) -> list[np.ndarray]:
        window = np.asarray(window, dtype=np.int64)
        idx = (np.arange(len(window)) + offset) % self.p
        out = []
        for q in range(self.p):
            part = window[idx == q]
            out.append(_both_directions(part) if len(part) else _NO_ENTRIES)
        return out


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

    def assign(self, window: np.ndarray, offset: int) -> list[np.ndarray]:
        return self._merge(self.base.assign(window, offset))

    def _partitions(self, window: np.ndarray, offset: int) -> list[np.ndarray]:
        return self.base.assign(window, offset)

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        return self.base.owner_of(vertices)
