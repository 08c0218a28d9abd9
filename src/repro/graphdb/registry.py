"""Backend registry: build any of the six GraphDB instances by name.

The experiment harness sweeps backends by the names used in the paper's
figures: ``Array``, ``HashMap``, ``MySQL``, ``BerkeleyDB``, ``StreamDB``,
``grDB``.  ``make_graphdb`` wires a backend to a simulated node (clock,
CPU profile, local disks).
"""

from __future__ import annotations

import dataclasses

from ..features import Features
from ..simcluster.cluster import SimNode
from ..storage.blockcache import SharedBlockCache, validate_cache_policy
from ..storage.integrity import wrap_device
from ..util.errors import ConfigError
from .array_db import ArrayGraphDB
from .bdb_db import BerkeleyGraphDB
from .grdb import GrDB, GrDBFormat
from .hashmap_db import HashMapGraphDB
from .idmap import IdMap
from .interface import GraphDB
from .mysql_db import MySQLGraphDB
from .stream_db import StreamGraphDB

__all__ = [
    "BACKENDS",
    "IN_MEMORY_BACKENDS",
    "OUT_OF_CORE_BACKENDS",
    "make_graphdb",
    "shared_cache_for",
]

IN_MEMORY_BACKENDS = ("Array", "HashMap")
OUT_OF_CORE_BACKENDS = ("MySQL", "BerkeleyDB", "StreamDB", "grDB")
BACKENDS = IN_MEMORY_BACKENDS + OUT_OF_CORE_BACKENDS


def shared_cache_for(node: SimNode, cache_blocks: int, policy: str) -> SharedBlockCache | None:
    """Return the node's process-wide block cache, creating it on first use.

    Policy ``"lru"`` means "keep the historical private per-store caches",
    so it returns ``None`` and every store builds its own
    :class:`LRUBlockCache` via the factory.  Policy ``"2q"`` hoists all
    block caching on the node into one :class:`SharedBlockCache` pool that
    every out-of-core store partitions by owner name.
    """
    if validate_cache_policy(policy) == "lru":
        return None
    pool = getattr(node, "shared_block_cache", None)
    if pool is None:
        pool = node.shared_block_cache = SharedBlockCache(cache_blocks)
    return pool


def make_graphdb(
    backend: str,
    node: SimNode,
    features: Features,
    id_map: IdMap | None = None,
    cache_blocks: int = 256,
    grdb_format: GrDBFormat | None = None,
    growth_policy: str = "link",
) -> GraphDB:
    """Instantiate ``backend`` on ``node``.

    ``cache_blocks`` sizes the internal block/page cache of the out-of-core
    backends (0 disables caching, the Figure 5.2 ablation); ``id_map`` is
    forwarded to grDB for declustered level-0 addressing.  The one place a
    :class:`~repro.features.Features` becomes leaf constructor arguments: a
    store is handed only the switches it reads (``direction_opt``,
    ``shared_scans`` and ``streaming`` are read by the services above it).
    """
    common = dict(clock=node.clock, cpu=node.spec.cpu, batch_io=features.batch_io)
    if features.checksums:
        provider = lambda name: wrap_device(node.disk(name))  # noqa: E731
    else:
        provider = node.disk
    shared = shared_cache_for(node, cache_blocks, features.cache_policy)
    if backend == "Array":
        return ArrayGraphDB(**common)
    if backend == "HashMap":
        return HashMapGraphDB(**common)
    if backend == "StreamDB":
        meta = provider("stream_meta") if features.checksums else None
        return StreamGraphDB(
            provider("streamdb"),
            meta_device=meta,
            compress=features.compress_adjacency,
            **common,
        )
    if backend == "BerkeleyDB":
        return BerkeleyGraphDB(
            provider("bdb"), cache_pages=cache_blocks, shared_cache=shared, **common
        )
    if backend == "MySQL":
        return MySQLGraphDB(provider, shared_cache=shared, **common)
    if backend == "grDB":
        fmt = grdb_format if grdb_format is not None else GrDBFormat()
        if features.compress_adjacency and not fmt.compress:
            fmt = dataclasses.replace(fmt, compress=True)
        return GrDB(
            provider,
            fmt=fmt,
            cache_blocks=cache_blocks,
            id_map=id_map,
            growth_policy=growth_policy,
            integrity=features.checksums,
            shared_cache=shared,
            **common,
        )
    raise ConfigError(f"unknown GraphDB backend {backend!r}; choose from {BACKENDS}")
