"""One commit root and one record frame for every durable store.

A *commit root* is LMDB's alternating meta pages: two 4 KiB slots at
offsets 0 and 4096, each ``magic u64 | seq u64 | fields | crc32 u32``
(little-endian, zero-padded).  The commit of ``seq`` writes slot
``seq % 2`` whole, so a torn commit damages only the slot being written,
and recovery adopts the newest valid slot.  ``fields`` is each store's own
:class:`struct.Struct`.  Records behind the root (from ``RECORD_START``)
are ``magic u32 | kind u32 | seq u64 | nedges u32 | nbytes u32 | payload |
crc32``; :func:`read_records` stops at the first short, torn or CRC-bad one.
``docs/storage_format.md`` gives every device's magic, fields and rules.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, NamedTuple

from ..simcluster.disk import BlockDevice
from ..util.errors import CorruptBlockError

__all__ = ["CommitRoot", "RECORD_START", "Record", "frame_record", "read_records"]

_SLOT = 4096
RECORD_START = 2 * _SLOT

_ROOT_HEAD = struct.Struct("<QQ")  # magic, seq
_CRC = struct.Struct("<I")
_REC = struct.Struct("<IIQII")  # magic, kind, seq, nedges, nbytes
_REC_MAGIC = 0x444C4F47  # "DLOG"


class CommitRoot:
    """The dual-slot commit root at the head of ``device``; ``seq`` is the
    last commit :meth:`load` adopted or :meth:`commit` wrote (0: none)."""

    def __init__(self, device: BlockDevice, magic: int, fields: struct.Struct):
        self.device = device
        self.magic = magic
        self.fields = fields
        self.seq = 0

    def _read_slot(self, slot: int) -> tuple[int, tuple] | None:
        off = slot * _SLOT
        size = _ROOT_HEAD.size + self.fields.size + _CRC.size
        if self.device.size() < off + size:
            return None
        try:
            raw = self.device.read(off, size)
        except CorruptBlockError:
            # A torn slot on a framed device: zero it, so a later scrub
            # does not count debris this recovery already accounted for.
            self.device.write(off, b"\x00" * _SLOT)
            return None
        magic, seq = _ROOT_HEAD.unpack_from(raw)
        (crc,) = _CRC.unpack_from(raw, size - _CRC.size)
        if magic != self.magic or crc != zlib.crc32(raw[: size - _CRC.size]):
            return None
        return seq, self.fields.unpack_from(raw, _ROOT_HEAD.size)

    def load(self) -> tuple[int, tuple] | None:
        """``(seq, fields)`` of the newest valid slot, or ``None`` if neither
        slot holds a commit."""
        slots = [s for s in (self._read_slot(0), self._read_slot(1)) if s is not None]
        if not slots:
            return None
        newest = max(slots)
        self.seq = newest[0]
        return newest

    def commit(self, *fields) -> None:
        """Durably commit ``fields`` as the next sequence number."""
        self.seq += 1
        body = _ROOT_HEAD.pack(self.magic, self.seq) + self.fields.pack(*fields)
        record = body + _CRC.pack(zlib.crc32(body))
        self.device.write((self.seq % 2) * _SLOT, record.ljust(_SLOT, b"\x00"))


class Record(NamedTuple):
    kind: int
    seq: int
    nedges: int
    payload: bytes
    end: int  # offset just past the record in the walked buffer


def frame_record(kind: int, seq: int, nedges: int, payload: bytes) -> bytes:
    body = _REC.pack(_REC_MAGIC, kind, seq, nedges, len(payload)) + payload
    return body + _CRC.pack(zlib.crc32(body))


def read_records(buf: bytes) -> Iterator[Record]:
    """The intact records at the start of ``buf``, in order, up to the first
    short, torn or CRC-bad one."""
    off = 0
    while off + _REC.size + _CRC.size <= len(buf):
        magic, kind, seq, nedges, nbytes = _REC.unpack_from(buf, off)
        if magic != _REC_MAGIC:
            return
        end = off + _REC.size + nbytes
        if end + _CRC.size > len(buf):
            return
        (crc,) = _CRC.unpack_from(buf, end)
        if crc != zlib.crc32(buf[off:end]):
            return
        off = end + _CRC.size
        yield Record(kind, seq, nedges, buf[end - nbytes : end], off)
