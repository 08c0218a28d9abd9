"""Slotted-ish heap file for the rows of MiniSQL's edges table.

Rows are stored unspanned (a row must fit in one page) with a one-byte flag
and a length prefix; deletion tombstones the row in place.  Row ids (RIDs)
are ``(page_no, byte_offset)`` pairs, stable for the life of the row.
"""

from __future__ import annotations

import struct
from typing import Iterator

from ..util.errors import StorageEngineError
from .pagedfile import PagedFile

__all__ = ["HeapFile", "RID"]

_PAGE_HDR = struct.Struct(">HI")  # nrows (live), free_off
_ROW_HDR = struct.Struct(">BI")  # flags, payload length
_FLAG_DELETED = 0x1

RID = tuple[int, int]


class HeapFile:
    """Append-oriented row store over a paged file."""

    def __init__(self, pages: PagedFile):
        self.pages = pages
        self.page_size = pages.page_size
        self.max_row = self.page_size - _PAGE_HDR.size - _ROW_HDR.size
        self._tail_page = pages.npages - 1 if pages.npages else -1

    # -- page helpers ---------------------------------------------------

    def _load(self, page_no: int) -> bytearray:
        return bytearray(self.pages.read_page(page_no))

    def _store(self, page_no: int, buf: bytearray) -> None:
        self.pages.write_page(page_no, bytes(buf))

    def _new_page(self) -> int:
        page_no = self.pages.allocate_page()
        buf = bytearray(self.page_size)
        _PAGE_HDR.pack_into(buf, 0, 0, _PAGE_HDR.size)
        self._store(page_no, buf)
        self._tail_page = page_no
        return page_no

    # -- row operations ---------------------------------------------------

    def insert(self, payload: bytes) -> RID:
        """Append a row; returns its RID."""
        if len(payload) > self.max_row:
            raise StorageEngineError(
                f"row of {len(payload)} bytes exceeds max unspanned row {self.max_row}"
            )
        if self._tail_page < 0:
            self._new_page()
        buf = self._load(self._tail_page)
        nrows, free_off = _PAGE_HDR.unpack_from(buf)
        need = _ROW_HDR.size + len(payload)
        if free_off + need > self.page_size:
            self._new_page()
            buf = self._load(self._tail_page)
            nrows, free_off = _PAGE_HDR.unpack_from(buf)
        _ROW_HDR.pack_into(buf, free_off, 0, len(payload))
        buf[free_off + _ROW_HDR.size : free_off + need] = payload
        _PAGE_HDR.pack_into(buf, 0, nrows + 1, free_off + need)
        self._store(self._tail_page, buf)
        return (self._tail_page, free_off)

    def read(self, rid: RID) -> bytes:
        """Fetch a live row by RID."""
        page_no, off = rid
        buf = self._load(page_no)
        flags, length = self._row_header(buf, off)
        if flags & _FLAG_DELETED:
            raise StorageEngineError(f"row {rid} is deleted")
        return bytes(buf[off + _ROW_HDR.size : off + _ROW_HDR.size + length])

    def delete(self, rid: RID) -> None:
        page_no, off = rid
        buf = self._load(page_no)
        flags, length = self._row_header(buf, off)
        if flags & _FLAG_DELETED:
            raise StorageEngineError(f"row {rid} already deleted")
        nrows, free_off = _PAGE_HDR.unpack_from(buf)
        _ROW_HDR.pack_into(buf, off, flags | _FLAG_DELETED, length)
        _PAGE_HDR.pack_into(buf, 0, nrows - 1, free_off)
        self._store(page_no, buf)

    def update_in_place(self, rid: RID, payload: bytes) -> bool:
        """Overwrite a row if the new payload is the same length.

        Returns False (without modifying anything) when the length differs;
        the caller then falls back to delete + insert.
        """
        page_no, off = rid
        buf = self._load(page_no)
        flags, length = self._row_header(buf, off)
        if flags & _FLAG_DELETED:
            raise StorageEngineError(f"row {rid} is deleted")
        if len(payload) != length:
            return False
        buf[off + _ROW_HDR.size : off + _ROW_HDR.size + length] = payload
        self._store(page_no, buf)
        return True

    def _row_header(self, buf: bytearray, off: int) -> tuple[int, int]:
        if not _PAGE_HDR.size <= off <= self.page_size - _ROW_HDR.size:
            raise StorageEngineError(f"row offset {off} outside page bounds")
        return _ROW_HDR.unpack_from(buf, off)

    # -- scans ---------------------------------------------------------------

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        """Iterate all live rows in physical order."""
        for page_no in range(self.pages.npages):
            buf = self._load(page_no)
            _, free_off = _PAGE_HDR.unpack_from(buf)
            off = _PAGE_HDR.size
            while off < free_off:
                flags, length = _ROW_HDR.unpack_from(buf, off)
                if not flags & _FLAG_DELETED:
                    yield (page_no, off), bytes(
                        buf[off + _ROW_HDR.size : off + _ROW_HDR.size + length]
                    )
                off += _ROW_HDR.size + length

    def count(self) -> int:
        total = 0
        for page_no in range(self.pages.npages):
            buf = self._load(page_no)
            nrows, _ = _PAGE_HDR.unpack_from(buf)
            total += nrows
        return total
