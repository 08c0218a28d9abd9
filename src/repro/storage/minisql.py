"""MiniSQL: the MySQL backend's one table, ``edges(src, chunk, adj)``.

The stand-in for the paper's MySQL 4.1.12.  Rows live in a slotted heap
file; a B-tree index on ``(src, chunk)`` maps order-preserving keys to row
ids.  Each method is the prepared plan of one statement the backend sends:
the three probes are index prefix scans, the two scans sequential heap
passes — the plans a relational planner picks for those statements.

Two properties make it behave like the paper's MySQL line rather than like
BerkeleyDB, both structural rather than hard-coded:

* every statement pays a parse/plan/round-trip overhead
  (``CpuProfile.sql_statement_seconds``), charged to the node clock, and
* row access is indirect — index probe first, then a heap-page fetch — so a
  logical record read costs two page reads instead of one.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator

from ..simcluster.costmodel import CpuProfile
from ..simcluster.disk import BlockDevice
from ..simcluster.virtualtime import VirtualClock
from .btree import BTree
from .heapfile import RID, HeapFile
from .pagedfile import PagedFile

__all__ = ["EdgesTable"]

_ROW = struct.Struct(">qiI")  # src, chunk, blob length; the blob follows
_RID = struct.Struct(">QQ")  # page, byte offset
_SIGN_FLIP = 1 << 63


def _prefix(*values: int) -> bytes:
    """Order-preserving index key prefix: each value sign-flipped, 8 bytes."""
    return b"".join(struct.pack(">Q", (v + _SIGN_FLIP) % (1 << 64)) for v in values)


class EdgesTable:
    """``edges(src BIGINT, chunk INT, adj BLOB)`` with an index on ``(src, chunk)``.

    ``device_provider(name) -> BlockDevice`` supplies the heap and index
    devices (typically ``node.disk``); statement overhead, row parses and
    index page visits are charged to ``clock`` at ``cpu``'s rates.
    """

    HEAP_PAGE = 16384
    INDEX_PAGE = 4096
    INDEX_CACHE_PAGES = 256

    def __init__(
        self,
        device_provider: Callable[[str], BlockDevice],
        clock: VirtualClock,
        cpu: CpuProfile,
        shared_cache=None,
    ):
        self._clock = clock
        self._cpu = cpu
        self.statements_executed = 0
        # CREATE TABLE edges (src BIGINT, chunk INT, adj BLOB)
        self._statement()
        self.heap = HeapFile(PagedFile(device_provider("tbl_edges_heap"), self.HEAP_PAGE))
        # CREATE INDEX ON edges (src, chunk), backfilled from existing rows
        self._statement()
        dev = device_provider("tbl_edges_idx_src_chunk")
        self.index = BTree(
            PagedFile(dev, self.INDEX_PAGE),
            cache_pages=self.INDEX_CACHE_PAGES,
            page_cpu_seconds=cpu.btree_page_seconds,
            shared_cache=shared_cache,
            cache_owner=dev.name,
        )
        for rid, raw in self.heap.scan():
            src, chunk, _ = _ROW.unpack_from(raw)
            self.index.put(self._key(src, chunk, rid), b"")

    # -- plan pieces --------------------------------------------------------

    def _statement(self) -> None:
        self._clock.advance(self._cpu.sql_statement_seconds)
        self.statements_executed += 1

    @staticmethod
    def _key(src: int, chunk: int, rid: RID) -> bytes:
        return _prefix(src, chunk) + _RID.pack(*rid)

    def _parse(self, raw: bytes) -> tuple[int, int, bytes]:
        self._clock.advance(self._cpu.row_parse_seconds)
        src, chunk, length = _ROW.unpack_from(raw)
        return src, chunk, raw[_ROW.size : _ROW.size + length]

    def _probe(self, prefix: bytes) -> Iterator[tuple[RID, tuple[int, int, bytes]]]:
        """Index prefix scan: each matching key, then its heap row."""
        for key, _ in self.index.items(start=prefix):
            if not key.startswith(prefix):
                break
            rid = _RID.unpack(key[-16:])
            yield rid, self._parse(self.heap.read(rid))

    def _sorted_rows(self, lo=None, hi=None) -> list[tuple[int, bytes]]:
        """Sequential heap pass: every row parsed, kept rows in (src, chunk) order."""
        rows = []
        for _, raw in self.heap.scan():
            src, chunk, blob = self._parse(raw)
            if lo is None or lo <= src <= hi:
                rows.append((src, chunk, blob))
        rows.sort(key=lambda r: (r[0], r[1]))
        return [(src, blob) for src, _, blob in rows]

    # -- statements ---------------------------------------------------------

    def insert(self, src: int, chunk: int, blob: bytes) -> None:
        """``INSERT INTO edges VALUES (?, ?, ?)``."""
        self._statement()
        rid = self.heap.insert(_ROW.pack(src, chunk, len(blob)) + blob)
        self.index.put(self._key(src, chunk, rid), b"")

    def update(self, src: int, chunk: int, blob: bytes) -> None:
        """``UPDATE edges SET adj = ? WHERE src = ? AND chunk = ?``.

        A longer blob fails ``update_in_place`` and moves the row: delete,
        insert, re-index under the new row id.
        """
        self._statement()
        raw = _ROW.pack(src, chunk, len(blob)) + blob
        for rid, _ in list(self._probe(_prefix(src, chunk))):
            self.index.delete(self._key(src, chunk, rid))
            if not self.heap.update_in_place(rid, raw):
                self.heap.delete(rid)
                rid = self.heap.insert(raw)
            self.index.put(self._key(src, chunk, rid), b"")

    def tail_probe(self, src: int) -> tuple[int, bytes] | None:
        """``SELECT chunk, adj FROM edges WHERE src = ? ORDER BY chunk DESC LIMIT 1``.

        Every chunk of ``src`` is read and parsed before the last is kept.
        """
        self._statement()
        rows = [row for _, row in self._probe(_prefix(src))]
        if not rows:
            return None
        _, chunk, blob = max(rows, key=lambda r: r[1])
        return chunk, blob

    def point_probe(self, src: int, chunk: int) -> list[bytes]:
        """``SELECT adj FROM edges WHERE src = ? AND chunk = ?``."""
        self._statement()
        return [blob for _, (_, _, blob) in self._probe(_prefix(src, chunk))]

    def vertex_probe(self, src: int) -> list[bytes]:
        """``SELECT adj FROM edges WHERE src = ? ORDER BY chunk`` (index order)."""
        self._statement()
        return [blob for _, (_, _, blob) in self._probe(_prefix(src))]

    def range_scan(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """``SELECT src, adj FROM edges WHERE src >= ? AND src <= ? ORDER BY src, chunk``."""
        self._statement()
        return self._sorted_rows(lo, hi)

    def ordered_scan(self) -> list[tuple[int, bytes]]:
        """``SELECT src, adj FROM edges ORDER BY src, chunk``."""
        self._statement()
        return self._sorted_rows()

    def flush(self) -> None:
        self.index.flush()
