"""From-scratch storage engines: paged files, caches, B-trees, KV, a table.

These are the substrates under the paper's GraphDB backends: the
BerkeleyDB-like :class:`KVStore`, the MySQL-like :class:`EdgesTable` (one
heap file and one B-tree index, driven by prepared plans rather than SQL
text), and the :class:`PagedFile`/:class:`LRUBlockCache` primitives that
grDB builds on.
"""

from .blockcache import CacheStats, LRUBlockCache
from .btree import BTree
from .heapfile import HeapFile
from .kvstore import KVStore, decode_u64, encode_key_u64_u32, encode_u64
from .minisql import EdgesTable
from .pagedfile import PagedFile

__all__ = [
    "BTree",
    "CacheStats",
    "EdgesTable",
    "HeapFile",
    "KVStore",
    "LRUBlockCache",
    "PagedFile",
    "decode_u64",
    "encode_key_u64_u32",
    "encode_u64",
]
