"""grDB superblock: persistence of instance metadata.

A grDB instance's data lives in its level files, but three pieces of
bookkeeping must survive a restart: the format geometry (so a reopen can
verify it), the per-level allocation state (bump pointers + free lists),
and the set of blocks ever written (blocks inside a file's extent that
were never written read back as zeroes, which must not be confused with
vertex id 0 — written blocks are always full-block EMPTY-initialized).
A checksummed instance also keeps its WAL commit counter, the durable
token a streaming compaction's intent is settled against.

The superblock serializes to its own small device (``grdb_super``) with a
checksummed binary layout:

    magic u32 | version u16 | num_levels u16 | M u64
    [version 2 only] flags u16  (bit 0: compressed sub-block interiors)
    per level: capacity u32 | block_size u32
    per level: next_subblock u64 | nfree u32 | free entries u64...
    nwritten u32 | (level u16, block u64) entries...
    [checksummed instances only] wal_seq u64
    crc32 u32 over everything above

Uncompressed instances keep writing version 1, byte-identical to the
historical layout; ``compress=True`` bumps to version 2 and records the
flag, so reopening a compressed store with a raw-format configuration (or
vice versa) fails the format cross-check instead of mis-parsing sub-blocks.
Without checksums no ``wal_seq`` is written (the bytes stay the historical
ones); an image that ends after the written-block list reads as 0.
"""

from __future__ import annotations

import struct
import zlib

from ...simcluster.disk import BlockDevice
from ...util.errors import GraphStorageException
from .format import GrDBFormat

__all__ = ["save_superblock", "load_superblock"]

_MAGIC = 0x67724442  # "grDB"
_VERSION = 1
_VERSION_COMPRESSED = 2
_FLAG_COMPRESS = 1
_HEADER = struct.Struct(">IHHQ")


def save_superblock(device: BlockDevice, storage) -> None:
    """Serialize a :class:`GrDBStorage`'s bookkeeping to ``device``."""
    fmt: GrDBFormat = storage.fmt
    out = bytearray()
    version = _VERSION_COMPRESSED if fmt.compress else _VERSION
    out += _HEADER.pack(_MAGIC, version, fmt.num_levels, fmt.max_file_bytes)
    if fmt.compress:
        out += struct.pack(">H", _FLAG_COMPRESS)
    for cap, bs in zip(fmt.capacities, fmt.block_sizes):
        out += struct.pack(">II", cap, bs)
    for level in range(fmt.num_levels):
        free = storage._free[level]
        out += struct.pack(">QI", storage._next_subblock[level], len(free))
        for sb in free:
            out += struct.pack(">Q", sb)
    written = sorted(storage._written_blocks)
    out += struct.pack(">I", len(written))
    for level, block in written:
        out += struct.pack(">HQ", level, block)
    if storage.integrity:
        out += struct.pack(">Q", storage._wal_seq)
    out += struct.pack(">I", zlib.crc32(bytes(out)))
    device.write(0, struct.pack(">I", len(out)) + bytes(out))


def load_superblock(device: BlockDevice) -> dict:
    """Parse a superblock; returns the bookkeeping needed by GrDBStorage.

    Raises :class:`GraphStorageException` on bad magic, version, or CRC.
    """
    (length,) = struct.unpack(">I", device.read(0, 4))
    if length == 0 or length > 64 << 20:
        raise GraphStorageException(f"implausible superblock length {length}")
    raw = device.read(4, length)
    body, (crc,) = raw[:-4], struct.unpack(">I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise GraphStorageException("superblock CRC mismatch (torn write?)")
    magic, version, num_levels, max_file_bytes = _HEADER.unpack_from(body)
    if magic != _MAGIC:
        raise GraphStorageException("not a grDB superblock (bad magic)")
    if version not in (_VERSION, _VERSION_COMPRESSED):
        raise GraphStorageException(f"unsupported superblock version {version}")
    off = _HEADER.size
    flags = 0
    if version == _VERSION_COMPRESSED:
        (flags,) = struct.unpack_from(">H", body, off)
        off += 2
    capacities, block_sizes = [], []
    for _ in range(num_levels):
        cap, bs = struct.unpack_from(">II", body, off)
        off += 8
        capacities.append(cap)
        block_sizes.append(bs)
    next_subblock, free = [], []
    for _ in range(num_levels):
        nxt, nfree = struct.unpack_from(">QI", body, off)
        off += 12
        entries = list(struct.unpack_from(f">{nfree}Q", body, off)) if nfree else []
        off += 8 * nfree
        next_subblock.append(nxt)
        free.append(entries)
    (nwritten,) = struct.unpack_from(">I", body, off)
    off += 4
    written = set()
    for _ in range(nwritten):
        level, block = struct.unpack_from(">HQ", body, off)
        off += 10
        written.add((level, block))
    (wal_seq,) = struct.unpack_from(">Q", body, off) if off < len(body) else (0,)
    return {
        "format": GrDBFormat(
            capacities=tuple(capacities),
            block_sizes=tuple(block_sizes),
            max_file_bytes=max_file_bytes,
            compress=bool(flags & _FLAG_COMPRESS),
        ),
        "next_subblock": next_subblock,
        "free": free,
        "written_blocks": written,
        "wal_seq": wal_seq,
    }
