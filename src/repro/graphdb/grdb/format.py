"""grDB on-disk format: level geometry, slot encoding, sub-block addressing.

From §3.4.1 and §4.1.6 of the paper:

* A grDB instance has ``L`` levels; the sub-blocks of level ``l`` hold up to
  ``d_l`` adjacent vertices, with ``d_l >= 2 * d_{l-1}`` — exponentially
  growing capacities matched to the power-law degree distribution.  The
  prototype used ``d = (2, 4, 16, 256, 4K, 16K)``.
* Every slot is a ``b``-byte integer (``b = 8``) whose **3 most significant
  bits are reserved**: ``000`` marks a plain vertex id (so ids reach
  ``2^61``, "sufficient for graphs with up to 2 quintillion vertices"),
  ``100`` marks a pointer into a higher-degree storage file, and ``111``
  (the all-ones word) marks an empty slot.
* Sub-blocks pack ``k_l`` to a block of ``B_l = k_l * b * d_l`` bytes
  (4 KB for the first four levels, then 32 KB and 256 KB); blocks pack
  ``N_l = M / B_l`` to a file of at most ``M`` bytes (prototype: 256 MB).
* Sub-block ``s`` of level ``l`` therefore lives in block ``s / k_l``,
  which is in file ``s / k_l / N_l`` at byte offset
  ``B_l * ((s / k_l) % N_l) + b * d_l * (s % k_l)`` — the paper's modulo
  arithmetic, implemented verbatim in :meth:`GrDBFormat.locate`.

With ``compress=True`` the geometry (levels, block sizes, addressing) is
unchanged but each sub-block's *interior* becomes a delta+varint frame
instead of raw slot words::

    count u16 LE | varint delta stream | zero padding | tail slot u64 LE

The tail slot keeps the raw format's semantics exactly — ``EMPTY_SLOT``
terminates the chain, a pointer word continues it — so chain walking,
defragmentation, the superblock, and the WAL are format-agnostic.  The
count ``0xFFFF`` is the never-written sentinel (all-0xFF fill decodes as an
empty sub-block).  Neighbors inside one sub-block are strictly sorted;
duplicate edges spill to the next sub-block of the chain, preserving the
stored multiset.  A sub-block of ``d_l`` slots thus offers
``8 * d_l - 10`` payload bytes, which small gap varints fill with several
times ``d_l`` neighbors — shorter chains, fewer blocks per vertex, fewer
bytes moved per device read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...util.errors import ConfigError, GraphStorageException
from ...util.varint import (
    decode_sorted,
    decode_sorted_segments,
    encode_sorted,
    encode_sorted_segments,
)

__all__ = [
    "GrDBFormat",
    "SLOT_BYTES",
    "EMPTY_SLOT",
    "MAX_VERTEX_ID",
    "COMPRESSED_COUNT_CAP",
    "encode_pointer",
    "decode_pointer",
    "is_pointer",
    "is_empty",
    "split_pointers",
    "join_pointers",
]

SLOT_BYTES = 8
#: All-ones slot = empty (tag bits 111).
EMPTY_SLOT = (1 << 64) - 1
#: Plain vertex ids keep the top 3 bits clear.
MAX_VERTEX_ID = (1 << 61) - 1

#: Compressed sub-blocks: never-written (all-0xFF) count sentinel, and the
#: per-sub-block entry cap that keeps every real count below it.
_COUNT_EMPTY = 0xFFFF
COMPRESSED_COUNT_CAP = 0xFFFE
_COUNT_STRUCT = struct.Struct("<H")
_TAIL_STRUCT = struct.Struct("<Q")

_PTR_TAG = 0b100 << 61
_TAG_MASK = 0b111 << 61
_LEVEL_SHIFT = 56
_LEVEL_MASK = 0x1F << _LEVEL_SHIFT
_INDEX_MASK = (1 << _LEVEL_SHIFT) - 1


def encode_pointer(level: int, subblock: int) -> int:
    """Pack a (level, sub-block index) pointer into one slot word."""
    if not 0 <= level < 32:
        raise ConfigError(f"pointer level {level} out of range")
    if not 0 <= subblock <= _INDEX_MASK:
        raise ConfigError(f"pointer sub-block index {subblock} out of range")
    return _PTR_TAG | (level << _LEVEL_SHIFT) | subblock


def decode_pointer(slot: int) -> tuple[int, int]:
    if not is_pointer(slot):
        raise ConfigError(f"slot 0x{slot:016x} is not a pointer")
    return (slot & _LEVEL_MASK) >> _LEVEL_SHIFT, slot & _INDEX_MASK


def is_pointer(slot: int) -> bool:
    return (slot & _TAG_MASK) == _PTR_TAG


def is_empty(slot: int) -> bool:
    return slot == EMPTY_SLOT


def split_pointers(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`is_pointer` + :func:`decode_pointer` over a uint64 slot array:
    ``(mask, levels, sub-blocks)``, the last two for the pointer words only."""
    mask = (slots & _TAG_MASK) == _PTR_TAG
    ptrs = slots[mask]
    return (
        mask,
        ((ptrs & _LEVEL_MASK) >> _LEVEL_SHIFT).astype(np.int64),
        (ptrs & _INDEX_MASK).astype(np.int64),
    )


def join_pointers(levels: np.ndarray, subblocks: np.ndarray) -> np.ndarray:
    """:func:`encode_pointer` over aligned arrays (the inverse of
    :func:`split_pointers`); callers pass levels and indices they allocated."""
    return (
        np.uint64(_PTR_TAG)
        | (levels.astype(np.uint64) << np.uint64(_LEVEL_SHIFT))
        | subblocks.astype(np.uint64)
    )


@dataclass(frozen=True)
class GrDBFormat:
    """Level geometry of one grDB instance (validated at construction)."""

    #: Sub-block capacities d_l, in adjacent vertices.
    capacities: tuple[int, ...] = (2, 4, 16, 256, 4096, 16384)
    #: Block size B_l per level, in bytes.
    block_sizes: tuple[int, ...] = (4096, 4096, 4096, 4096, 32768, 262144)
    #: Maximum storage file size M, in bytes (prototype: 256 MB; scaled
    #: experiments shrink it to keep many files in play).
    max_file_bytes: int = 256 << 20
    #: Delta+varint compressed sub-block interiors (see module doc).  Part
    #: of the format — a store written one way must be reopened the same
    #: way, which the superblock enforces.
    compress: bool = False

    def __post_init__(self):
        if not self.capacities:
            raise ConfigError("grDB needs at least one level")
        if len(self.block_sizes) != len(self.capacities):
            raise ConfigError(
                f"{len(self.capacities)} levels but {len(self.block_sizes)} block sizes"
            )
        prev = None
        for lvl, (d, B) in enumerate(zip(self.capacities, self.block_sizes)):
            if d < 2:
                raise ConfigError(f"level {lvl} capacity {d} must be >= 2")
            if prev is not None and d < 2 * prev:
                raise ConfigError(
                    f"level {lvl} capacity {d} violates d_l >= 2*d_(l-1) (prev {prev})"
                )
            sub = d * SLOT_BYTES
            if B % sub != 0:
                raise ConfigError(
                    f"level {lvl}: block size {B} not a multiple of sub-block size {sub}"
                )
            if self.max_file_bytes < B:
                raise ConfigError(
                    f"level {lvl}: max file size {self.max_file_bytes} smaller than one block"
                )
            prev = d

    # -- derived geometry --------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self.capacities)

    def subblock_bytes(self, level: int) -> int:
        return self.capacities[level] * SLOT_BYTES

    def subblocks_per_block(self, level: int) -> int:
        """k_l."""
        return self.block_sizes[level] // self.subblock_bytes(level)

    def blocks_per_file(self, level: int) -> int:
        """N_l."""
        return self.max_file_bytes // self.block_sizes[level]

    @cached_property
    def _subblock_layout(self) -> tuple[tuple[int, int], ...]:
        """``(k_l, sub-block bytes)`` per level."""
        return tuple(
            (self.subblocks_per_block(lv), self.subblock_bytes(lv)) for lv in range(self.num_levels)
        )

    def subblock_span(self, level: int, subblock: int) -> tuple[int, int, int]:
        """Address sub-block ``s`` within its block: (global block index
        ``s // k_l``, first byte, end byte).  An address no sub-block has —
        a level out of range or a negative index — raises."""
        layout = self._subblock_layout
        if not 0 <= level < len(layout):
            raise GraphStorageException(f"level {level} out of range")
        if subblock < 0:
            raise GraphStorageException(f"negative sub-block index {subblock}")
        k, nbytes = layout[level]
        block, at = divmod(subblock, k)
        return block, at * nbytes, (at + 1) * nbytes

    def locate(self, level: int, subblock: int) -> tuple[int, int, int, int]:
        """Address sub-block ``s``: (file index, byte offset, block index, slot offset).

        ``block index`` is global across files (``s // k_l``); the byte
        offset is within the file, per the paper's formula.
        """
        block, slot_off, _ = self.subblock_span(level, subblock)
        file_idx, in_file = divmod(block, self.blocks_per_file(level))
        return file_idx, self.block_sizes[level] * in_file + slot_off, block, slot_off

    def total_chain_capacity(self) -> int:
        """Vertices storable in one maximal level-0..top chain (link policy),
        accounting for one pointer slot in every non-terminal sub-block."""
        caps = self.capacities
        return sum(d - 1 for d in caps[:-1]) + caps[-1]

    def empty_subblock(self, level: int) -> bytes:
        return b"\xff" * self.subblock_bytes(level)

    def empty_block(self, level: int) -> bytes:
        return b"\xff" * self.block_sizes[level]

    @staticmethod
    def parse_slots(data: bytes) -> np.ndarray:
        """Decode a sub-block's raw bytes into uint64 slot words."""
        return np.frombuffer(data, dtype="<u8")

    @staticmethod
    def pack_slots(slots: np.ndarray) -> bytes:
        return np.ascontiguousarray(slots.astype("<u8")).tobytes()

    # -- compressed sub-block frame (compress=True) -------------------------

    def payload_bytes(self, level: int) -> int:
        """Varint payload budget of one compressed sub-block: everything
        between the u16 count header and the reserved u64 tail slot."""
        return self.subblock_bytes(level) - _COUNT_STRUCT.size - _TAIL_STRUCT.size

    def encode_subblock(self, level: int, values: np.ndarray, tail_slot: int) -> bytes:
        """Frame a strictly sorted neighbor list (+ tail slot) for ``level``."""
        n = len(values)
        if n > COMPRESSED_COUNT_CAP:
            raise GraphStorageException(
                f"{n} neighbors exceed one compressed sub-block's count cap"
            )
        payload = encode_sorted(values)
        budget = self.payload_bytes(level)
        if len(payload) > budget:
            raise GraphStorageException(
                f"compressed payload of {len(payload)} bytes overflows the "
                f"{budget}-byte budget of a level-{level} sub-block"
            )
        return (
            _COUNT_STRUCT.pack(n)
            + payload
            + b"\x00" * (budget - len(payload))
            + _TAIL_STRUCT.pack(tail_slot)
        )

    def decode_subblock(self, data: bytes) -> tuple[np.ndarray, int, int]:
        """Unframe one compressed sub-block: ``(values, tail slot, consumed)``.

        ``consumed`` is the varint byte count actually decoded (the unit the
        CPU model charges).  An all-0xFF (never written) sub-block decodes
        to an empty list with an ``EMPTY_SLOT`` tail.  Truncated or
        non-monotone streams raise :class:`GraphStorageException`.
        """
        (n,) = _COUNT_STRUCT.unpack_from(data)
        (tail,) = _TAIL_STRUCT.unpack_from(data, len(data) - _TAIL_STRUCT.size)
        if n == _COUNT_EMPTY or n == 0:
            return np.empty(0, dtype=np.uint64), tail, 0
        values, consumed = decode_sorted(
            data[_COUNT_STRUCT.size : len(data) - _TAIL_STRUCT.size],
            n,
            what="grDB sub-block delta stream",
        )
        if int(values[-1]) > MAX_VERTEX_ID:
            raise GraphStorageException(
                f"corrupt grDB sub-block: decoded neighbor {int(values[-1])} "
                "exceeds the 61-bit vertex id space"
            )
        return values, tail, consumed

    # -- whole batches of sub-blocks (level-synchronous reads, window appends) --

    @staticmethod
    def frame_columns(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split an ``(m, subblock_bytes)`` uint8 matrix of compressed frames
        into ``(counts, tail slots, payload columns)`` without decoding;
        never-written frames (count ``0xFFFF``) report count 0."""
        counts = np.ascontiguousarray(frames[:, : _COUNT_STRUCT.size]).view("<u2").ravel()
        counts = np.where(counts == _COUNT_EMPTY, 0, counts).astype(np.int64)
        tails = np.ascontiguousarray(frames[:, -_TAIL_STRUCT.size :]).view("<u8").ravel()
        return counts, tails, frames[:, _COUNT_STRUCT.size : -_TAIL_STRUCT.size]

    def decode_subblocks(
        self, level: int, subblocks: np.ndarray, frames: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Decode the sub-blocks ``subblocks`` of ``level`` in one pass.

        Row ``i`` of the ``(m, subblock_bytes)`` uint8 matrix ``frames``
        holds sub-block ``subblocks[i]`` (named only in errors).  Returns
        ``(values, offsets, tails, consumed)``: the neighbors of row ``i``
        are ``values[offsets[i]:offsets[i + 1]]``, ``tails[i]`` is its
        chain-continuation word and ``consumed[i]`` its decoded varint
        bytes (0 for raw slots, where decoding is a reshape).  Compressed
        frames get every check of :meth:`decode_subblock`.
        """
        if self.compress:
            counts, tails, payload = self.frame_columns(frames)
            values, offsets, consumed = decode_sorted_segments(
                payload,
                counts,
                what=lambda i: f"grDB level-{level} sub-block {int(subblocks[i])} delta stream",
                max_value=MAX_VERTEX_ID,
            )
            return values, offsets, tails, consumed
        slots = frames.view("<u8")
        tails = slots[:, -1]
        keep = slots != EMPTY_SLOT
        keep[:, -1] &= ~split_pointers(tails)[0]
        offsets = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
        return slots[keep], offsets, tails, np.zeros(len(slots), dtype=np.int64)

    def encode_subblocks(
        self, level: int, values: np.ndarray, offsets: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Frame many strictly sorted neighbor lists for ``level`` in one pass
        — the inverse of :meth:`decode_subblocks`.

        Row ``i`` of the returned ``(m, subblock_bytes)`` uint8 matrix is
        ``encode_subblock(level, values[offsets[i]:offsets[i + 1]], tails[i])``.
        """
        counts = np.diff(offsets)
        if len(counts) and int(counts.max()) > COMPRESSED_COUNT_CAP:
            raise GraphStorageException(
                f"{int(counts.max())} neighbors exceed one compressed sub-block's count cap"
            )
        frames = np.empty((len(counts), self.subblock_bytes(level)), dtype=np.uint8)
        frames[:, : _COUNT_STRUCT.size] = counts.astype("<u2")[:, None].view(np.uint8)
        frames[:, _COUNT_STRUCT.size : -_TAIL_STRUCT.size] = encode_sorted_segments(
            values, offsets, self.payload_bytes(level)
        )
        frames[:, -_TAIL_STRUCT.size :] = np.asarray(tails, dtype="<u8")[:, None].view(np.uint8)
        return frames
