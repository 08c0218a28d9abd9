"""Dense bitset over 64-bit words, vectorized with numpy.

The wire format for bottom-up BFS fringes (``bfs/direction.py``): each rank
sets its fringe with ``set_many``, the raw word array is what ranks
allgather (n/8 bytes instead of 8 bytes per fringe vertex), and
``or_words`` merges the peers' words in place, so ``words`` / ``or_words``
are deliberately zero-copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Bitset"]

_ONE = np.uint64(1)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on older numpy

    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)

    def _popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count (SWAR bit-twiddling)."""
        w = words - ((words >> _ONE) & _M1)
        w = (w & _M2) + ((w >> np.uint64(2)) & _M2)
        w = (w + (w >> np.uint64(4))) & _M4
        return (w * _H01) >> np.uint64(56)


class Bitset:
    """Fixed-capacity dense bitset with vectorized batch operations."""

    __slots__ = ("_words", "_nbits")

    def __init__(self, nbits: int):
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        self._nbits = int(nbits)
        self._words = np.zeros((self._nbits + 63) // 64, dtype=np.uint64)

    def set_many(self, idxs) -> None:
        idxs = np.asarray(idxs, dtype=np.int64)
        if idxs.size == 0:
            return
        if idxs.min() < 0 or idxs.max() >= self._nbits:
            raise IndexError("bit index out of range in set_many")
        np.bitwise_or.at(
            self._words,
            idxs >> 6,
            np.uint64(1) << (idxs & 63).astype(np.uint64),
        )

    def get_many(self, idxs) -> np.ndarray:
        """Boolean array: bit value for each index in ``idxs``."""
        idxs = np.asarray(idxs, dtype=np.int64)
        if idxs.size == 0:
            return np.zeros(0, dtype=bool)
        if idxs.min() < 0 or idxs.max() >= self._nbits:
            raise IndexError("bit index out of range in get_many")
        return (self._words[idxs >> 6] >> (idxs & 63).astype(np.uint64)) & _ONE != 0

    def to_indices(self) -> np.ndarray:
        """Sorted array of all set bit positions.

        Extracts the lowest set bit of every nonzero word per round, so the
        work is O(set bits) instead of materializing an 8x ``unpackbits``
        copy of the whole word array.
        """
        nz = np.nonzero(self._words)[0]
        if nz.size == 0:
            return np.zeros(0, dtype=np.int64)
        w = self._words[nz].copy()
        base = nz.astype(np.int64) << 6
        chunks = []
        while w.size:
            lsb = w & (~w + _ONE)
            chunks.append(base + _popcount(lsb - _ONE).astype(np.int64))
            w &= w - _ONE
            keep = w != 0
            if not keep.all():
                w = w[keep]
                base = base[keep]
        out = np.concatenate(chunks)
        out.sort()
        return out

    # -- zero-copy word access (bottom-up fringe exchange) ----------------

    @property
    def words(self) -> np.ndarray:
        """The backing uint64 word array (a live view, not a copy)."""
        return self._words

    def or_words(self, words: np.ndarray) -> None:
        """OR a raw word array into this bitset in place (zero-copy merge)."""
        if len(words) != len(self._words):
            raise ValueError(
                f"word count mismatch: got {len(words)}, need {len(self._words)}"
            )
        self._words |= words
