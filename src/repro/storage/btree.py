"""On-disk B+tree with byte-string keys and values.

This is the index engine under both stand-ins for the paper's open-source
databases: the BerkeleyDB-like key-value store keeps adjacency chunks in one
of these, and MiniSQL's edges table indexes ``(src, chunk)`` with one.
The tree stores real bytes in real pages through :class:`PagedFile`, with
all I/O routed through an :class:`LRUBlockCache` so virtual-time cost
reflects cache hits/misses.

Layout (page size configurable, default 4096):

* page 0 — meta: magic, root page, free-list head, key count.
* leaf — ``0x4C | ncells u16 | next_leaf u64`` then size-prefixed cells
  ``key_len u16 | flags u8 | key | (val_len u32 | val)`` inline, or
  ``key_len u16 | 0x01 | key | total_len u64 | first_ovf u64`` when the
  value spills to a chain of overflow pages.
* interior — ``0x49 | ncells u16 | left_child u64`` then cells
  ``key_len u16 | key | child u64``; ``key`` is the smallest key reachable
  through ``child``.
* overflow — ``next u64 | chunk_len u32 | data``.

Keys order lexicographically as bytes; callers encode integers big-endian to
preserve numeric order.  Deletion is implemented without rebalancing
(underfull nodes are tolerated, as in many production trees); freed overflow
pages are recycled through a free list.
"""

from __future__ import annotations

import struct
from typing import Iterator

from ..util.errors import (
    GraphStorageException,
    KeyNotFound,
    PageFormatError,
    StorageEngineError,
)
from .blockcache import SharedBlockCache, make_block_cache
from .pagedfile import PagedFile

__all__ = ["BTree"]

_BTREE_MAGIC = 0x4254524D  # "BTRM"
_LEAF = 0x4C
_INTERIOR = 0x49
_META_FMT = struct.Struct(">IQQQ")  # magic, root, free_head, nkeys
_LEAF_HDR = struct.Struct(">BHQ")  # type, ncells, next_leaf(+1, 0=none)
_INT_HDR = struct.Struct(">BHQ")  # type, ncells, left_child
_OVF_HDR = struct.Struct(">QI")  # next(+1, 0=none), chunk_len

_FLAG_INLINE = 0
_FLAG_OVERFLOW = 1


class _Leaf:
    __slots__ = ("keys", "vals", "next_leaf")

    def __init__(self, keys=None, vals=None, next_leaf=-1):
        self.keys: list[bytes] = keys or []
        # each val: (flags, payload) where payload = value bytes (inline)
        # or (total_len, first_ovf_page) for overflow.
        self.vals: list[tuple[int, object]] = vals or []
        self.next_leaf = next_leaf  # page number or -1

    def serialized_size(self) -> int:
        size = _LEAF_HDR.size
        for k, (flags, payload) in zip(self.keys, self.vals):
            size += 3 + len(k)
            size += (4 + len(payload)) if flags == _FLAG_INLINE else 16
        return size


class _Interior:
    __slots__ = ("keys", "children")

    def __init__(self, keys=None, children=None):
        self.keys: list[bytes] = keys or []
        self.children: list[int] = children or []  # len(keys) + 1

    def serialized_size(self) -> int:
        return _INT_HDR.size + sum(2 + len(k) + 8 for k in self.keys)


class BTree:
    """B+tree over a paged file with an LRU page cache."""

    def __init__(
        self,
        pages: PagedFile,
        cache_pages: int = 256,
        max_inline: int | None = None,
        page_cpu_seconds: float = 0.0,
        shared_cache: SharedBlockCache | None = None,
        cache_owner: str = "btree",
    ):
        self.pages = pages
        self.page_size = pages.page_size
        #: CPU charge per node visit (parse + binary search), billed to the
        #: owning device's clock; 0 keeps standalone use free.
        self.page_cpu_seconds = page_cpu_seconds
        if self.page_size < 128:
            raise StorageEngineError("B-tree needs pages of at least 128 bytes")
        self.max_inline = max_inline if max_inline is not None else self.page_size // 4
        self.cache = make_block_cache(
            cache_pages, writer=self._write_through, shared=shared_cache, owner=cache_owner
        )
        # Host-time accelerator: parsed nodes keyed by page, valid only
        # while the page cache still returns the identical bytes object
        # (any write or byte-cache miss produces a fresh object and forces
        # a re-parse).  Virtual-time charging is unaffected.
        self._parsed: dict[int, tuple[bytes, object]] = {}
        if self.pages.npages == 0:
            meta = self.pages.allocate_page()
            if meta != 0:
                # A fresh paged file must hand out page 0 for the meta
                # node; anything else means the allocator state is corrupt
                # (and an assert would vanish under ``python -O``).
                raise GraphStorageException(
                    f"fresh B-tree file allocated page {meta} for its meta "
                    "node instead of page 0"
                )
            root = self.pages.allocate_page()
            self.root = root
            self.free_head = -1
            self.nkeys = 0
            self._write_node(root, _Leaf())
            self._sync_meta()
        else:
            raw = self.pages.read_page(0)
            magic, root, free_head, nkeys = _META_FMT.unpack_from(raw)
            if magic != _BTREE_MAGIC:
                raise PageFormatError("not a BTree file (bad meta magic)")
            self.root = root
            self.free_head = free_head - 1
            self.nkeys = nkeys

    # -- page plumbing -----------------------------------------------------

    def _write_through(self, page_no: int, data: bytes) -> None:
        self.pages.write_page(page_no, data)

    def _read_raw(self, page_no: int) -> bytes:
        data = self.cache.get(page_no)
        if data is None:
            data = self.pages.read_page(page_no)
            self.cache.put(page_no, data)
        return data

    def _write_raw(self, page_no: int, data: bytes) -> None:
        if self.cache.capacity > 0:
            self.cache.put(page_no, data, dirty=True)
        else:
            self.pages.write_page(page_no, data)

    def _alloc_page(self) -> int:
        if self.free_head >= 0:
            page_no = self.free_head
            raw = self._read_raw(page_no)
            (nxt,) = struct.unpack_from(">Q", raw)
            self.free_head = nxt - 1
            self._sync_meta()
            return page_no
        return self.pages.allocate_page()

    def _free_page(self, page_no: int) -> None:
        buf = bytearray(self.page_size)
        struct.pack_into(">Q", buf, 0, self.free_head + 1)
        self._write_raw(page_no, bytes(buf))
        self.free_head = page_no
        self._sync_meta()

    def _sync_meta(self) -> None:
        buf = bytearray(self.page_size)
        _META_FMT.pack_into(buf, 0, _BTREE_MAGIC, self.root, self.free_head + 1, self.nkeys)
        self._write_raw(0, bytes(buf))

    # -- node (de)serialization ---------------------------------------------

    def _read_node(self, page_no: int):
        if self.page_cpu_seconds:
            self.pages.device.clock.advance(self.page_cpu_seconds)
        raw = self._read_raw(page_no)
        cached = self._parsed.get(page_no)
        if cached is not None and cached[0] is raw:
            return cached[1]
        node = self._parse_node(page_no, raw)
        if len(self._parsed) > 4 * max(self.cache.capacity, 64):
            self._parsed.clear()
        self._parsed[page_no] = (raw, node)
        return node

    def _parse_node(self, page_no: int, raw: bytes):
        kind = raw[0]
        if kind == _LEAF:
            _, ncells, next_leaf = _LEAF_HDR.unpack_from(raw)
            node = _Leaf(next_leaf=next_leaf - 1)
            off = _LEAF_HDR.size
            for _ in range(ncells):
                key_len, flags = struct.unpack_from(">HB", raw, off)
                off += 3
                key = bytes(raw[off : off + key_len])
                off += key_len
                if flags == _FLAG_INLINE:
                    (val_len,) = struct.unpack_from(">I", raw, off)
                    off += 4
                    payload: object = bytes(raw[off : off + val_len])
                    off += val_len
                else:
                    total_len, first_ovf = struct.unpack_from(">QQ", raw, off)
                    off += 16
                    payload = (total_len, first_ovf)
                node.keys.append(key)
                node.vals.append((flags, payload))
            return node
        if kind == _INTERIOR:
            _, ncells, left_child = _INT_HDR.unpack_from(raw)
            node = _Interior(children=[left_child])
            off = _INT_HDR.size
            for _ in range(ncells):
                (key_len,) = struct.unpack_from(">H", raw, off)
                off += 2
                key = bytes(raw[off : off + key_len])
                off += key_len
                (child,) = struct.unpack_from(">Q", raw, off)
                off += 8
                node.keys.append(key)
                node.children.append(child)
            return node
        raise PageFormatError(f"page {page_no} has unknown node type 0x{kind:02x}")

    def _write_node(self, page_no: int, node) -> None:
        buf = bytearray(self.page_size)
        if isinstance(node, _Leaf):
            _LEAF_HDR.pack_into(buf, 0, _LEAF, len(node.keys), node.next_leaf + 1)
            off = _LEAF_HDR.size
            for key, (flags, payload) in zip(node.keys, node.vals):
                struct.pack_into(">HB", buf, off, len(key), flags)
                off += 3
                buf[off : off + len(key)] = key
                off += len(key)
                if flags == _FLAG_INLINE:
                    struct.pack_into(">I", buf, off, len(payload))
                    off += 4
                    buf[off : off + len(payload)] = payload
                    off += len(payload)
                else:
                    total_len, first_ovf = payload
                    struct.pack_into(">QQ", buf, off, total_len, first_ovf)
                    off += 16
        else:
            _INT_HDR.pack_into(buf, 0, _INTERIOR, len(node.keys), node.children[0])
            off = _INT_HDR.size
            for key, child in zip(node.keys, node.children[1:]):
                struct.pack_into(">H", buf, off, len(key))
                off += 2
                buf[off : off + len(key)] = key
                off += len(key)
                struct.pack_into(">Q", buf, off, child)
                off += 8
        if off > self.page_size:
            raise PageFormatError(f"node overflowed page {page_no} ({off} > {self.page_size})")
        self._write_raw(page_no, bytes(buf))

    # -- overflow chains ----------------------------------------------------

    def _write_overflow(self, value: bytes) -> int:
        """Store ``value`` in a chain of overflow pages; returns first page."""
        chunk_cap = self.page_size - _OVF_HDR.size
        chunks = [value[i : i + chunk_cap] for i in range(0, len(value), chunk_cap)] or [b""]
        page_nos = [self._alloc_page() for _ in chunks]
        for i, chunk in enumerate(chunks):
            nxt = page_nos[i + 1] + 1 if i + 1 < len(page_nos) else 0
            buf = bytearray(self.page_size)
            _OVF_HDR.pack_into(buf, 0, nxt, len(chunk))
            buf[_OVF_HDR.size : _OVF_HDR.size + len(chunk)] = chunk
            self._write_raw(page_nos[i], bytes(buf))
        return page_nos[0]

    def _read_overflow(self, first_page: int, total_len: int) -> bytes:
        out = bytearray()
        page_no = first_page
        while page_no != -1 and len(out) < total_len:
            raw = self._read_raw(page_no)
            nxt, chunk_len = _OVF_HDR.unpack_from(raw)
            out += raw[_OVF_HDR.size : _OVF_HDR.size + chunk_len]
            page_no = nxt - 1
        if len(out) != total_len:
            raise PageFormatError(
                f"overflow chain at page {first_page} yielded {len(out)} of {total_len} bytes"
            )
        return bytes(out)

    def _free_overflow(self, first_page: int) -> None:
        page_no = first_page
        while page_no != -1:
            raw = self._read_raw(page_no)
            (nxt,) = struct.unpack_from(">Q", raw)
            self._free_page(page_no)
            page_no = nxt - 1

    def _make_val(self, value: bytes) -> tuple[int, object]:
        if len(value) <= self.max_inline:
            return (_FLAG_INLINE, bytes(value))
        return (_FLAG_OVERFLOW, (len(value), self._write_overflow(value)))

    def _load_val(self, flags: int, payload) -> bytes:
        if flags == _FLAG_INLINE:
            return payload
        total_len, first_ovf = payload
        return self._read_overflow(first_ovf, total_len)

    def _drop_val(self, flags: int, payload) -> None:
        if flags == _FLAG_OVERFLOW:
            self._free_overflow(payload[1])

    # -- search helpers ------------------------------------------------------

    @staticmethod
    def _lower_bound(keys: list[bytes], key: bytes) -> int:
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _descend(self, key: bytes) -> list[int]:
        """Path of page numbers from root to the leaf that may hold ``key``."""
        path = [self.root]
        node = self._read_node(self.root)
        while isinstance(node, _Interior):
            idx = self._lower_bound(node.keys, key)
            # children[idx] covers keys < keys[idx]; equal keys live right.
            if idx < len(node.keys) and node.keys[idx] == key:
                idx += 1
            child = node.children[idx]
            path.append(child)
            node = self._read_node(child)
        return path

    # -- public API -----------------------------------------------------------

    def get(self, key: bytes) -> bytes:
        key = bytes(key)
        leaf = self._read_node(self._descend(key)[-1])
        idx = self._lower_bound(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            flags, payload = leaf.vals[idx]
            return self._load_val(flags, payload)
        raise KeyNotFound(repr(key))

    def get_or_none(self, key: bytes) -> bytes | None:
        try:
            return self.get(key)
        except KeyNotFound:
            return None

    def contains(self, key: bytes) -> bool:
        return self.get_or_none(key) is not None

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        key, value = bytes(key), bytes(value)
        if len(key) > self.page_size // 8:
            raise StorageEngineError(f"key of {len(key)} bytes too large for page size")
        path = self._descend(key)
        leaf = self._read_node(path[-1])
        idx = self._lower_bound(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            self._drop_val(*leaf.vals[idx])
            leaf.vals[idx] = self._make_val(value)
        else:
            leaf.keys.insert(idx, key)
            leaf.vals.insert(idx, self._make_val(value))
            self.nkeys += 1
        self._store_and_split(path, leaf)
        self._sync_meta()

    def delete(self, key: bytes) -> None:
        key = bytes(key)
        path = self._descend(key)
        leaf = self._read_node(path[-1])
        idx = self._lower_bound(leaf.keys, key)
        if not (idx < len(leaf.keys) and leaf.keys[idx] == key):
            raise KeyNotFound(repr(key))
        self._drop_val(*leaf.vals[idx])
        del leaf.keys[idx]
        del leaf.vals[idx]
        self.nkeys -= 1
        self._write_node(path[-1], leaf)
        self._sync_meta()

    def _store_and_split(self, path: list[int], node) -> None:
        """Write ``node`` at ``path[-1]``, splitting up the tree as needed."""
        page_no = path[-1]
        if node.serialized_size() <= self.page_size:
            self._write_node(page_no, node)
            return
        # Greedy byte-budget split: fill the left half up to the page size,
        # which (given max_inline <= page_size / 4 and bounded keys)
        # guarantees the remainder also fits in one page.
        if isinstance(node, _Leaf):
            split = self._leaf_split_point(node)
            right = _Leaf(node.keys[split:], node.vals[split:], node.next_leaf)
            right_page = self._alloc_page()
            node.keys, node.vals = node.keys[:split], node.vals[:split]
            node.next_leaf = right_page
            sep_key = right.keys[0]
        else:
            split = self._interior_split_point(node)
            sep_key = node.keys[split]
            right = _Interior(node.keys[split + 1 :], node.children[split + 1 :])
            right_page = self._alloc_page()
            node.keys, node.children = node.keys[:split], node.children[: split + 1]
        for half, where in ((node, page_no), (right, right_page)):
            if half.serialized_size() > self.page_size:  # pragma: no cover - guarded by geometry
                raise StorageEngineError("split produced an oversized node half")
            self._write_node(where, half)
        self._insert_separator(path[:-1], page_no, sep_key, right_page)

    def _leaf_split_point(self, leaf: _Leaf) -> int:
        if len(leaf.keys) < 2:
            raise StorageEngineError("cannot split a leaf with a single oversized cell")
        budget = self.page_size - _LEAF_HDR.size
        used = 0
        for i, (k, (flags, payload)) in enumerate(zip(leaf.keys, leaf.vals)):
            cell = 3 + len(k) + ((4 + len(payload)) if flags == _FLAG_INLINE else 16)
            if used + cell > budget and i > 0:
                return min(i, len(leaf.keys) - 1)
            used += cell
        return len(leaf.keys) - 1

    def _interior_split_point(self, node: _Interior) -> int:
        budget = self.page_size - _INT_HDR.size
        used = 0
        for i, k in enumerate(node.keys):
            cell = 2 + len(k) + 8
            if used + cell > budget and i > 0:
                return min(i, len(node.keys) - 1)
            used += cell
        return max(1, len(node.keys) // 2)

    def _insert_separator(self, path: list[int], left_page: int, key: bytes, right_page: int):
        if not path:
            # Root split: allocate a new root above.
            new_root = self._alloc_page()
            root_node = _Interior(keys=[key], children=[left_page, right_page])
            self._write_node(new_root, root_node)
            self.root = new_root
            self._sync_meta()
            return
        parent_page = path[-1]
        parent = self._read_node(parent_page)
        idx = self._lower_bound(parent.keys, key)
        parent.keys.insert(idx, key)
        parent.children.insert(idx + 1, right_page)
        self._store_and_split(path, parent)

    # -- scans ------------------------------------------------------------------

    def items(self, start: bytes | None = None, end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs with ``start <= key < end``."""
        page_no = self._descend(start if start is not None else b"")[-1]
        while page_no != -1:
            leaf = self._read_node(page_no)
            for key, (flags, payload) in zip(leaf.keys, leaf.vals):
                if start is not None and key < start:
                    continue
                if end is not None and key >= end:
                    return
                yield key, self._load_val(flags, payload)
            page_no = leaf.next_leaf

    def keys(self, start: bytes | None = None, end: bytes | None = None) -> Iterator[bytes]:
        for k, _ in self.items(start, end):
            yield k

    def __len__(self) -> int:
        return self.nkeys

    def flush(self) -> None:
        self.cache.flush()
