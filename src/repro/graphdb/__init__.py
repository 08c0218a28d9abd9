"""GraphDB Service: the Listing 3.1 interface and its six backends."""

from .array_db import ArrayGraphDB
from .bdb_db import BerkeleyGraphDB, CHUNK_BYTES, CHUNK_ENTRIES
from .grdb import GrDB, GrDBFormat, defragment
from .hashmap_db import HashMapGraphDB
from .idmap import IdentityMap, IdMap, ModuloMap
from .interface import (
    OP_ALL,
    OP_EQ,
    OP_GT,
    OP_LT,
    OP_NEQ,
    AdjacencyBatch,
    GraphDB,
    GraphDBStats,
)
from .metadata import ExternalMetadata, InMemoryMetadata, MetadataStore, UNSET
from .mysql_db import MySQLGraphDB
from .registry import BACKENDS, IN_MEMORY_BACKENDS, OUT_OF_CORE_BACKENDS, make_graphdb
from .stream_db import StreamGraphDB

__all__ = [
    "AdjacencyBatch",
    "ArrayGraphDB",
    "BACKENDS",
    "BerkeleyGraphDB",
    "CHUNK_BYTES",
    "CHUNK_ENTRIES",
    "ExternalMetadata",
    "GraphDB",
    "GraphDBStats",
    "GrDB",
    "GrDBFormat",
    "HashMapGraphDB",
    "IN_MEMORY_BACKENDS",
    "IdMap",
    "IdentityMap",
    "InMemoryMetadata",
    "MetadataStore",
    "ModuloMap",
    "MySQLGraphDB",
    "OP_ALL",
    "OP_EQ",
    "OP_GT",
    "OP_LT",
    "OP_NEQ",
    "OUT_OF_CORE_BACKENDS",
    "StreamGraphDB",
    "UNSET",
    "defragment",
    "make_graphdb",
]
