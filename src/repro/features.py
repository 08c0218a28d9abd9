"""The seven feature knobs of a deployment: spelled, defaulted, validated once.

The paper's MSSG is one prototype (§4: per-vertex top-down search over raw
slots and private caches); everything this reproduction layered on it is a
switch here.  ``MSSGConfig`` carries a :class:`Features`, every layer below
is handed the object, and ``graphdb.registry.make_graphdb`` alone turns it
into the narrow constructor arguments a store reads.  No knob changes an
answer — only the access plan, the device image and the virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .storage.blockcache import validate_cache_policy
from .util.errors import ConfigError

__all__ = ["Features"]


@dataclass(frozen=True)
class Features:
    """Feature switches of one MSSG deployment (defaults: production)."""

    #: Batched/coalescing fringe expansion (``False`` = the paper
    #: prototype's per-vertex adjacency loop; results are identical).
    batch_io: bool = True
    #: Direction-optimizing BFS: switch to bottom-up (pull) levels with a
    #: dense bitmap fringe when the fringe's out-degree sum says a
    #: sequential storage scan is cheaper than per-vertex expansion
    #: (``False`` = the paper's pure top-down search; reported levels are
    #: identical either way, only the access plan and virtual time differ).
    #: A single query can override it (``query_bfs(direction_opt=...)``).
    direction_opt: bool = True
    #: End-to-end block integrity: every out-of-core device is framed into
    #: 4 KiB payloads with CRC32 trailers, verified on every read; grDB's
    #: flush journals through a WAL and StreamDB keeps durable commit
    #: records, so a crash mid-flush recovers to a consistent image.  A
    #: CRC-bad frame raises ``CorruptBlockError``, BFS reroutes the shard
    #: to a replica, and the façade repairs the damaged back-end.  Costs
    #: ~0.1% capacity and the WAL write amplification.
    checksums: bool = True
    #: Block-cache organization of the out-of-core back-ends.  ``"lru"`` —
    #: the historical layout: every store owns a private LRU of
    #: ``cache_blocks`` entries.  ``"2q"`` — all stores on a back-end node
    #: share ONE process-wide pool of ``cache_blocks`` entries, partitioned
    #: by owner and run with scan-resistant two-segment eviction (a
    #: sequential sweep can only churn the probation segment; blocks
    #: re-referenced across queries are promoted and survive).
    cache_policy: str = "2q"
    #: Share backend sweeps (StreamDB log replays, bottom-up storage
    #: scans) between concurrent queries of one scheduling round: one
    #: device pass, decoded adjacency fanned to every subscriber.  Answers
    #: are unaffected; only device time is.  A single drain can override
    #: it (``query_many(shared_scans=...)``).
    shared_scans: bool = True
    #: Delta+varint compressed adjacency (:mod:`repro.util.varint`): grDB
    #: sub-block interiors and StreamDB log records store sorted neighbor
    #: gaps as varints instead of raw 8-byte words, and replication
    #: repair/rebalance ships adjacency in the same compact form.  Fewer
    #: device bytes per query at a per-byte vectorized decode CPU cost
    #: (``CpuProfile.varint_decode_seconds``); answers are unaffected.
    #: No-op for the other four backends.
    compress_adjacency: bool = True
    #: Streaming ingest (DESIGN §12): every back-end carries a crash-safe
    #: delta log, :meth:`MSSG.ingest_stream` appends edge batches to it
    #: incrementally (durable + published on return, folded into the base
    #: stores by :meth:`MSSG.compact`), and queries run against the
    #: snapshot published at their admission — an in-flight query never
    #: observes a half-applied batch, and a crash at any point recovers to
    #: the last published snapshot.  ``query_many(stream_batches=...)``
    #: interleaves ingest *with* a drain.
    streaming: bool = False

    def __post_init__(self):
        validate_cache_policy(self.cache_policy)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "cache_policy" and not isinstance(value, bool):
                # A truthy string ("no", "off") must not read as "on".
                raise ConfigError(f"{f.name} must be a bool, got {value!r}")

    @classmethod
    def production(cls) -> Features:
        """The library default, ``Features()``: only the two opt-in knobs off."""
        return cls()

    @classmethod
    def paper(cls) -> Features:
        """The paper's prototype: every knob off, private LRU caches.

        Each knob moves some device's bytes, offsets or timeline, so the
        chapter-5 figures and ``twoclock``'s ``grdb-paper`` run on this value
        and stay bit-identical — a knob added later is off here by construction.
        """
        off = {f.name: False for f in fields(cls) if f.name != "cache_policy"}
        return cls(cache_policy="lru", **off)
