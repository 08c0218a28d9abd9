"""Delta+varint codec for sorted adjacency (vectorized via numpy).

The compressed on-disk/on-wire adjacency representation: a sorted neighbor
list is stored as the varint of its first value followed by the varints of
the gaps to each successor.  Gaps in a strictly sorted list are >= 1, so a
decoded gap of 0 — or a stream that ends mid-varint, or a varint longer
than the canonical 9 bytes — is proof of corruption below the CRC frame
granularity and raises instead of decoding to a garbage neighbor list.

Varints are LEB128-style: 7 payload bits per byte, little-endian groups,
high bit = continuation.  Nine bytes carry 63 payload bits, so the codec
covers exactly the ids ``0 .. 2**63 - 1`` (every non-negative int64) and a
ten-byte group is never canonical.

Both encode and decode are numpy-vectorized, per *value* rather than per
byte: encode computes every value's byte length with one binary search over
the nine thresholds and scatters the 7-bit groups in at most nine passes;
decode finds group terminators from the continuation bits, gathers the first
byte of every group, ORs in one further byte position per pass over only the
groups that reach it (adjacency gaps are 1-3 bytes), and rebuilds values with
one cumulative sum.  The decode side is what the CPU cost model charges
(``CpuProfile.varint_decode_seconds`` per encoded byte).  numpy dispatch
costs microseconds per call whatever the size, so code that handles many
streams at once works on a byte matrix with one row per stream: grDB's
level-synchronous chain resolver decodes a round of sub-blocks in one
:func:`decode_sorted_segments` call, and its window append plans and frames
a whole ingest window with :func:`fit_sorted_segments` and
:func:`encode_sorted_segments`.

For edge *batches* (StreamDB log records, rebalance wire transfers) the
module adds a two-stream layout: edges sorted by ``(src, dst)``, sources
delta-encoded non-strictly (repeats are legal — a vertex has many edges),
and destinations delta-encoded within each source group, restarting raw at
every group boundary (detectable from the source stream's non-zero gaps).
A block is therefore its own CSR — strictly increasing group sources, one
sorted list each — and :func:`decode_edge_groups` returns it as such, so a
reader that wants adjacency lists never re-sorts what the encoder sorted;
:func:`decode_edge_block` expands it to one ``(src, dst)`` row per edge.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import GraphStorageException

__all__ = [
    "MAX_ENCODABLE",
    "varint_lengths",
    "encode_varints",
    "decode_varints",
    "encode_sorted",
    "decode_sorted",
    "decode_sorted_segments",
    "encode_sorted_segments",
    "sorted_encoded_size",
    "split_sorted_fit",
    "fit_sorted_segments",
    "encode_edge_block",
    "decode_edge_groups",
    "decode_edge_block",
    "edge_block_bytes",
]

#: Largest encodable value: 9 varint bytes * 7 payload bits = 63 bits.
MAX_ENCODABLE = (1 << 63) - 1

#: value >= _THRESHOLDS[k]  <=>  its varint needs more than k+1 bytes.
_THRESHOLDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)


def _as_u64(values) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.ndim != 1:
        raise GraphStorageException(f"varint codec expects a 1-d array, got shape {v.shape}")
    return v


def varint_lengths(values) -> np.ndarray:
    """Encoded byte length of each value (1..9, vectorized)."""
    v = _as_u64(values)
    if v.size and int(v.max()) > MAX_ENCODABLE:
        raise GraphStorageException(
            f"value {int(v.max())} exceeds the codec's 63-bit range"
        )
    return 1 + np.searchsorted(_THRESHOLDS, v, side="right")


def encode_varints(values) -> bytes:
    """Encode a flat sequence of u64 values (each <= ``MAX_ENCODABLE``)."""
    v = _as_u64(values)
    if v.size == 0:
        return b""
    return _encode(v, varint_lengths(v)).tobytes()


def _encode(v: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The varint bytes of non-empty ``v``, whose byte lengths are ``lengths``."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for k in range(int(lengths.max())):
        sel = lengths > k
        group = ((v[sel] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (lengths[sel] > k + 1).astype(np.uint8) << 7
        out[starts[sel] + k] = group | cont
    return out


def decode_varints(buf: bytes, count: int, what: str = "varint stream") -> tuple[np.ndarray, int]:
    """Decode the first ``count`` varints of ``buf``.

    Returns ``(values, consumed_bytes)``; trailing bytes (sub-block
    padding) are ignored.  Raises :class:`GraphStorageException` when the
    stream is truncated or a group is longer than the canonical 9 bytes.
    """
    if count == 0:
        return np.empty(0, dtype=np.uint64), 0
    b = np.frombuffer(buf, dtype=np.uint8)
    terminators = np.flatnonzero((b & 0x80) == 0)
    if len(terminators) < count:
        raise GraphStorageException(
            f"truncated {what}: {count} values promised, "
            f"only {len(terminators)} varints terminate in {len(b)} bytes"
        )
    end = int(terminators[count - 1]) + 1
    values, lengths = _join_groups(b, terminators[:count])
    _reject_long_groups(lengths, what)
    return values, end


def _reject_long_groups(lengths: np.ndarray, what: str) -> None:
    if int(lengths.max()) > 9:
        raise GraphStorageException(
            f"corrupt {what}: varint group of {int(lengths.max())} bytes "
            "(canonical maximum is 9)"
        )


def _join_groups(b: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and byte length of each varint group of ``b``, given the index
    of every group's terminator.  Works per value, not per byte: the first
    byte of every group, then one pass per further byte position over only
    the groups that reach it (adjacency gaps are 1-3 bytes).  Callers reject
    lengths above 9; bytes past a group's ninth are never read."""
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    values = (b[starts] & np.uint8(0x7F)).astype(np.uint64)
    longer = np.flatnonzero(lengths > 1)
    for k in range(1, 9):
        if not len(longer):
            break
        part = (b[starts[longer] + k] & np.uint8(0x7F)).astype(np.uint64)
        values[longer] |= part << np.uint64(7 * k)
        longer = longer[lengths[longer] > k + 1]
    return values, lengths


# -- sorted neighbor lists (grDB sub-blocks) --------------------------------


def _segment_deltas(v: np.ndarray, head=slice(0, 1)) -> np.ndarray:
    """Gaps between neighbours of non-empty ``v``, restarting raw where
    ``head`` is set (by default: one list, only its first value is raw)."""
    deltas = v.copy()
    deltas[1:] -= v[:-1]
    deltas[head] = v[head]
    return deltas


def encode_sorted(values) -> bytes:
    """Encode a strictly increasing neighbor list as first + gap varints.

    Duplicates and unsorted input are rejected — the caller owns keeping
    per-sub-block lists strictly sorted (duplicate edges spill to the next
    sub-block in the chain).
    """
    v = _as_u64(values)
    if v.size == 0:
        return b""
    if v.size > 1 and np.any(v[1:] <= v[:-1]):
        raise GraphStorageException(
            "encode_sorted needs a strictly increasing list "
            "(duplicates rejected; sort and dedupe first)"
        )
    return encode_varints(_segment_deltas(v))


def decode_sorted(buf: bytes, count: int, what: str = "delta stream") -> tuple[np.ndarray, int]:
    """Decode ``count`` strictly increasing values; ``(values, consumed)``.

    A gap of zero (a duplicate — which :func:`encode_sorted` can never
    produce), a wrapped cumulative sum, or a value past the 63-bit range
    all mean the bytes were damaged below the checksum granularity; each
    raises :class:`GraphStorageException` instead of returning garbage.
    """
    deltas, consumed = decode_varints(buf, count, what=what)
    if count == 0:
        return deltas, consumed
    if count > 1 and int(deltas[1:].min()) == 0:
        raise GraphStorageException(
            f"non-monotone {what}: zero gap decodes to a duplicate neighbor"
        )
    values = np.cumsum(deltas, dtype=np.uint64)
    # uint64 cumsum wrap-around shows up as a non-increase.
    if count > 1 and np.any(values[1:] <= values[:-1]):
        raise GraphStorageException(f"non-monotone {what}: decoded ids decrease")
    if int(values[-1]) > MAX_ENCODABLE:
        raise GraphStorageException(
            f"corrupt {what}: decoded id {int(values[-1])} exceeds the 63-bit range"
        )
    return values, consumed


def decode_sorted_segments(
    streams: np.ndarray,
    counts,
    what: Callable[[int], str] = "delta stream {}".format,
    max_value: int = MAX_ENCODABLE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decode_sorted` over many streams in one pass.

    Row ``i`` of the ``(m, width)`` uint8 matrix ``streams`` begins with the
    delta stream of ``counts[i]`` strictly increasing values (``0`` skips
    the row); whatever follows is padding.  Returns ``(values, offsets,
    consumed)``: segment ``i`` is ``values[offsets[i]:offsets[i + 1]]`` and
    took ``consumed[i]`` bytes.  Every corruption check of the one-stream
    decoder applies per segment, and the :class:`GraphStorageException`
    names the offending one as ``what(i)``.
    """
    streams = np.asarray(streams, dtype=np.uint8)
    counts = np.asarray(counts, dtype=np.int64)
    if streams.ndim != 2 or len(streams) != len(counts) or (counts < 0).any():
        raise GraphStorageException(
            f"segmented decode expects one matrix row per non-negative count, got "
            f"{streams.shape} for {len(counts)} counts"
        )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), offsets, np.zeros(len(counts), dtype=np.int64)
    term = streams < 0x80
    short = np.count_nonzero(term, axis=1) < counts
    if short.any():
        i = int(np.argmax(short))
        raise GraphStorageException(
            f"truncated {what(i)}: {counts[i]} values promised, only "
            f"{np.count_nonzero(term[i])} varints terminate in {streams.shape[1]} bytes"
        )
    # A byte's group index within its row = the terminators before it; the
    # bytes of the first counts[i] groups, row-major, are one flat stream.
    used = np.cumsum(term, axis=1, dtype=np.int32) - term < counts[:, None]
    deltas, lengths = _join_groups(streams[used], np.flatnonzero(term[used]))

    def reject(flags: np.ndarray, kind: str, detail: str) -> None:
        if flags.any():
            i = int(np.searchsorted(offsets, np.argmax(flags), side="right")) - 1
            raise GraphStorageException(f"{kind} {what(i)}: {detail}")

    reject(lengths > 9, "corrupt", "varint group longer than the canonical 9 bytes")
    live = counts > 0
    first = offsets[:-1][live]
    inner = np.ones(total, dtype=bool)
    inner[first] = False
    reject(inner & (deltas == 0), "non-monotone", "zero gap decodes to a duplicate neighbor")
    # Segmented cumulative sum: drop what accumulated before each segment.
    csum = np.cumsum(deltas, dtype=np.uint64)
    values = csum - np.repeat(csum[first] - deltas[first], counts[live])
    # uint64 wrap-around shows up as a non-increase inside a segment.
    inner[1:] &= values[1:] <= values[:-1]
    reject(inner, "non-monotone", "decoded ids decrease")
    reject(values > max_value, "corrupt", f"decoded id exceeds {max_value:#x}")
    return values, offsets, used.sum(axis=1)


def encode_sorted_segments(values, offsets, width: int) -> np.ndarray:
    """:func:`encode_sorted` over many lists in one pass — the inverse of
    :func:`decode_sorted_segments`.

    Returns an ``(m, width)`` uint8 matrix whose row ``i`` begins with the
    delta stream of ``values[offsets[i]:offsets[i + 1]]`` and is zero-padded.
    Raises when a list is not strictly increasing or overflows ``width``.
    """
    v = _as_u64(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    out = np.zeros((len(counts), width), dtype=np.uint8)
    if v.size == 0:
        return out
    live = np.flatnonzero(counts)
    starts = offsets[live]
    head = np.zeros(v.size, dtype=bool)
    head[starts] = True
    if np.any(~head[1:] & (v[1:] <= v[:-1])):
        raise GraphStorageException(
            "encode_sorted_segments needs strictly increasing lists "
            "(duplicates rejected; sort and dedupe first)"
        )
    deltas = _segment_deltas(v, head)
    lengths = varint_lengths(deltas)
    nbytes = np.add.reduceat(lengths, starts)
    if int(nbytes.max()) > width:
        i = int(live[np.argmax(nbytes)])
        raise GraphStorageException(
            f"delta stream {i} of {int(nbytes.max())} bytes overflows its {width}-byte row"
        )
    first_byte = np.cumsum(nbytes) - nbytes
    cols = np.arange(int(nbytes.sum())) - np.repeat(first_byte, nbytes)
    out[np.repeat(live, nbytes), cols] = _encode(deltas, lengths)
    return out


def sorted_encoded_size(values) -> int:
    """Encoded byte size of a strictly increasing list (no validation)."""
    v = _as_u64(values)
    if v.size == 0:
        return 0
    return int(varint_lengths(_segment_deltas(v)).sum())


def split_sorted_fit(pending, budget_bytes: int, max_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a sorted multiset into (encodable prefix, spill).

    The prefix takes the first occurrence of each value, in order, while
    its delta encoding fits ``budget_bytes`` and at most ``max_count``
    values; everything else (byte overflow *and* duplicate occurrences)
    spills, still sorted, for the next sub-block in the chain.  The prefix
    may be empty when even the first varint overflows the budget — the
    caller then stores only a continuation pointer.
    """
    p = _as_u64(pending)
    if p.size == 0:
        return p, p
    first = np.ones(p.size, dtype=bool)
    first[1:] = p[1:] != p[:-1]
    uniq = p[first]
    dups = p[~first]
    sizes = np.cumsum(varint_lengths(_segment_deltas(uniq)))
    take = int(np.searchsorted(sizes, budget_bytes, side="right"))
    take = min(take, max_count)
    fit = uniq[:take]
    if take == uniq.size and dups.size == 0:
        return fit, np.empty(0, dtype=np.uint64)
    spill = np.sort(np.concatenate([uniq[take:], dups]), kind="stable")
    return fit, spill


def fit_sorted_segments(
    pending, offsets, budgets, max_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`split_sorted_fit` over many sorted multisets in one pass.

    Segment ``i`` is ``pending[offsets[i]:offsets[i + 1]]`` (sorted, repeats
    allowed) and may spend ``budgets[i]`` bytes.  Returns ``(fit, taken)``:
    a boolean mask over ``pending`` marking every segment's encodable prefix
    — first occurrences, in order, while the delta encoding fits the budget
    and at most ``max_count`` values — and the prefix length per segment.
    ``pending[~fit]`` is every segment's spill, still sorted.
    """
    p = _as_u64(pending)
    counts = np.diff(np.asarray(offsets, dtype=np.int64))
    fit = np.zeros(p.size, dtype=bool)
    if p.size == 0:
        return fit, np.zeros(len(counts), dtype=np.int64)
    seg = np.repeat(np.arange(len(counts)), counts)
    first = np.ones(p.size, dtype=bool)
    first[1:] = (p[1:] != p[:-1]) | (seg[1:] != seg[:-1])
    uniq, useg = p[first], seg[first]
    head = np.ones(uniq.size, dtype=bool)
    head[1:] = useg[1:] != useg[:-1]
    lengths = varint_lengths(_segment_deltas(uniq, head))
    starts = np.flatnonzero(head)
    span = np.diff(np.append(starts, uniq.size))
    sizes = np.cumsum(lengths)
    sizes -= np.repeat(sizes[starts] - lengths[starts], span)
    rank = np.arange(uniq.size) - np.repeat(starts, span)
    ok = (sizes <= np.asarray(budgets, dtype=np.int64)[useg]) & (rank < max_count)
    fit[first] = ok
    return fit, np.bincount(useg[ok], minlength=len(counts))


# -- edge batches (StreamDB records, wire transfers) ------------------------


def _edge_block_deltas(edges) -> tuple[np.ndarray, np.ndarray]:
    """Source and destination gap streams of a non-empty ``(E, 2)`` batch."""
    e = np.ascontiguousarray(edges, dtype=np.uint64).reshape(-1, 2)
    if int(e.max()) > MAX_ENCODABLE:
        raise GraphStorageException(
            f"vertex id {int(e.max())} exceeds the codec's 63-bit range"
        )
    order = np.lexsort((e[:, 1], e[:, 0]))
    srcs = e[order, 0]
    dsts = e[order, 1]
    sdel = np.empty(len(srcs), dtype=np.uint64)
    sdel[0] = srcs[0]
    sdel[1:] = srcs[1:] - srcs[:-1]
    new_group = np.ones(len(srcs), dtype=bool)
    new_group[1:] = sdel[1:] != 0
    ddel = np.empty(len(dsts), dtype=np.uint64)
    ddel[0] = dsts[0]
    ddel[1:] = np.where(new_group[1:], dsts[1:], dsts[1:] - dsts[:-1])
    return sdel, ddel


def encode_edge_block(edges) -> bytes:
    """Encode an ``(E, 2)`` edge batch as two delta streams.

    Edges are sorted by ``(src, dst)``; sources are gap-encoded allowing
    repeats (gap 0 = same source group), destinations restart raw at every
    group boundary and are gap-encoded (repeats legal — a duplicate edge)
    within it.  Decoding recovers the sorted order, not the arrival order.
    """
    if np.size(edges) == 0:
        return b""
    sdel, ddel = _edge_block_deltas(edges)
    return encode_varints(sdel) + encode_varints(ddel)


def decode_edge_groups(
    buf: bytes, nedges: int, what: str = "edge block"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Decode ``nedges`` edges of :func:`encode_edge_block` output as the
    block's own CSR, the ``(src, dst)`` order its encoder sorted it into.

    Returns ``(sources, offsets, destinations, consumed_bytes)``, the arrays
    int64: ``sources`` strictly increasing, ``destinations[offsets[i]:
    offsets[i + 1]]`` the non-decreasing list of ``sources[i]``.  Raises
    :class:`GraphStorageException` on truncation, a group longer than the
    canonical 9 bytes, decreasing sources, decreasing in-group destinations,
    or out-of-range ids.
    """
    if nedges == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.zeros(1, dtype=np.int64), empty, 0
    b = np.frombuffer(buf, dtype=np.uint8)
    # One scan finds the terminators of both streams: the first ``nedges``
    # close source gaps, the next ``nedges`` destination gaps.
    ends = np.flatnonzero(b < 0x80)[: 2 * nedges]
    if len(ends) < 2 * nedges:
        # Truncated.  The one-stream decoder names the stream (and lets a
        # bad source group outrank a short destination stream).
        _, used = decode_varints(buf, nedges, what=f"{what} sources")
        decode_varints(buf[used:], nedges, what=f"{what} destinations")
    deltas, lengths = _join_groups(b, ends)
    _reject_long_groups(lengths[:nedges], f"{what} sources")
    _reject_long_groups(lengths[nedges:], f"{what} destinations")
    sdel, ddel = deltas[:nedges], deltas[nedges:]
    # A non-zero source gap opens a group (and so does the first entry).
    starts = np.flatnonzero(sdel)
    if sdel[0] == 0:
        starts = np.concatenate(([0], starts))
    sources = np.cumsum(sdel[starts], dtype=np.uint64)
    # Gaps are < 2**63, so a uint64 wrap-around shows up as a decrease.
    if np.any(sources[1:] < sources[:-1]):
        raise GraphStorageException(f"non-monotone {what}: decoded sources decrease")
    # Segmented cumulative sum: subtract, inside each group, the running
    # total accumulated before the group started.
    offsets = np.append(starts, nedges)
    csum = np.cumsum(ddel, dtype=np.uint64)
    dsts = csum - np.repeat(csum[starts] - ddel[starts], offsets[1:] - offsets[:-1])
    falls = dsts[1:] < dsts[:-1]
    falls[starts[1:] - 1] = False  # a new group restarts raw
    if falls.any():
        raise GraphStorageException(
            f"non-monotone {what}: in-group destinations decrease"
        )
    hi = max(int(sources[-1]), int(dsts.max()))
    if hi > MAX_ENCODABLE:
        raise GraphStorageException(
            f"corrupt {what}: decoded id {hi} exceeds the 63-bit range"
        )
    return sources.view(np.int64), offsets, dsts.view(np.int64), int(ends[-1]) + 1


def decode_edge_block(buf: bytes, nedges: int, what: str = "edge block") -> tuple[np.ndarray, int]:
    """:func:`decode_edge_groups` expanded to one row per edge.

    Returns ``(edges (E, 2) int64, consumed_bytes)``, sorted by ``(src,
    dst)``; raises as the grouped decoder does.
    """
    sources, offsets, dsts, consumed = decode_edge_groups(buf, nedges, what)
    out = np.empty((nedges, 2), dtype=np.int64)
    out[:, 0] = np.repeat(sources, np.diff(offsets))
    out[:, 1] = dsts
    return out, consumed


def edge_block_bytes(edges) -> int:
    """Encoded payload size of an edge batch (for wire-size accounting):
    ``len(encode_edge_block(edges))`` without building the bytes."""
    if np.size(edges) == 0:
        return 0
    sdel, ddel = _edge_block_deltas(edges)
    return int(varint_lengths(sdel).sum() + varint_lengths(ddel).sum())
