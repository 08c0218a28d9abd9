"""Differential test of the varint codec against a scalar reference.

``ref_groups`` below reads a stream one byte at a time with Python ints; it
shares no numpy arithmetic with ``repro.util.varint``.  Every vectorized
decoder must agree with it on hypothesis-drawn streams — valid ones that
cover every group length 1-9, zero gaps, repeated edges and padding after
the stream, and doctored ones — either on the decoded values and the bytes
consumed, or on *which* rejection fires (the substrings are the ones
``tests/test_compression.py`` matches).
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.util.errors import GraphStorageException
from repro.util.varint import (
    MAX_ENCODABLE,
    decode_edge_block,
    decode_edge_groups,
    decode_sorted,
    decode_sorted_segments,
    decode_varints,
    edge_block_bytes,
    encode_edge_block,
    encode_varints,
)

# -- the scalar reference -------------------------------------------------------

#: Rejection kinds, in the order a one-stream decoder tries them, and the
#: message substring each production exception carries.
KINDS = {
    "truncated": "truncated",
    "canonical": "canonical",
    "non-monotone": "non-monotone",
    "63-bit": "63-bit|exceeds",
}
STAGE = {kind: i for i, kind in enumerate(KINDS)}


class Reject(Exception):
    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


def ref_encode(values) -> bytes:
    out = bytearray()
    for value in values:
        while value >= 0x80:
            out.append(0x80 | (value & 0x7F))
            value >>= 7
        out.append(value)
    return bytes(out)


def ref_groups(buf: bytes, count: int) -> tuple[list[int], int]:
    """The first ``count`` LEB128 groups of ``buf``: ``(values, consumed)``."""
    groups, current = [], []
    for byte in buf:
        if len(groups) == count:
            break
        current.append(byte)
        if byte < 0x80:
            groups.append(current)
            current = []
    if len(groups) < count:
        raise Reject("truncated")
    if any(len(group) > 9 for group in groups):
        raise Reject("canonical")
    values = [sum((byte & 0x7F) << (7 * i) for i, byte in enumerate(g)) for g in groups]
    return values, sum(map(len, groups))


def ref_sorted(buf: bytes, count: int) -> tuple[list[int], int]:
    """``count`` strictly increasing ids stored as first value + gaps."""
    gaps, consumed = ref_groups(buf, count)
    if 0 in gaps[1:]:
        raise Reject("non-monotone")
    values, total = [], 0
    for gap in gaps:
        total += gap
        values.append(total)
    if values and values[-1] >= 1 << 64:  # the uint64 sum wrapped: a decrease
        raise Reject("non-monotone")
    if values and values[-1] > MAX_ENCODABLE:
        raise Reject("63-bit")
    return values, consumed


def ref_edge_block(buf: bytes, nedges: int) -> tuple[list[tuple[int, int]], int]:
    """``nedges`` edges in ``(src, dst)`` order from the two-stream layout."""
    sgaps, s_used = ref_groups(buf, nedges)
    dgaps, d_used = ref_groups(buf[s_used:], nedges)
    srcs, src = [], 0
    for gap in sgaps:
        src += gap
        srcs.append(src)
    if srcs and srcs[-1] >= 1 << 64:
        raise Reject("non-monotone")
    dsts = []
    for i, gap in enumerate(dgaps):
        dsts.append(gap if i == 0 or sgaps[i] else dsts[-1] + gap)
    if any(dst >= 1 << 64 for dst in dsts):
        raise Reject("non-monotone")
    if nedges and max(srcs + dsts) > MAX_ENCODABLE:
        raise Reject("63-bit")
    return list(zip(srcs, dsts)), s_used + d_used


def outcome(decode, *args):
    """``("ok", result)`` or ``("reject", kind)`` of either side."""
    try:
        return "ok", decode(*args)
    except Reject as err:
        return "reject", err.kind
    except GraphStorageException as err:
        hits = [kind for kind, pattern in KINDS.items() if re.search(pattern, str(err))]
        assert len(hits) == 1, f"ambiguous rejection message: {err}"
        return "reject", hits[0]


# -- drawn streams ----------------------------------------------------------------

#: Ids whose varints cover every group length 1-9 evenly (uniform in bits).
ids = st.tuples(st.integers(0, 62), st.integers(0, MAX_ENCODABLE)).map(lambda t: t[1] >> t[0])
small = st.integers(0, 300)  # collisions: zero gaps, repeated edges
padding = st.binary(max_size=12)
#: Byte substitutions that turn a valid stream into a doctored one.
doctoring = st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=3)
relaxed = settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])


def doctor(buf: bytes, edits) -> bytes:
    out = bytearray(buf)
    for pos, byte in edits:
        if out:
            out[pos % len(out)] = byte
    return bytes(out)


def as_ints(array) -> list:
    return np.asarray(array).tolist()


@relaxed
@given(st.lists(st.one_of(ids, small), max_size=60), padding, doctoring, st.integers(0, 3))
def test_decode_varints_agrees(values, pad, edits, extra):
    buf = ref_encode(values)
    assert encode_varints(np.array(values, dtype=np.uint64)) == buf
    buf = doctor(buf, edits) + pad
    count = len(values) + (extra if edits else 0)  # asking past the stream: truncation
    kind, got = outcome(decode_varints, buf, count)
    if kind == "ok":
        assert got[0].dtype == np.uint64
        got = (as_ints(got[0]), got[1])
    assert (kind, got) == outcome(ref_groups, buf, count)


@relaxed
@given(st.lists(st.one_of(ids, small), max_size=60, unique=True), padding, doctoring)
def test_decode_sorted_agrees(values, pad, edits):
    values = sorted(values)
    gaps = [b - a for a, b in zip([0] + values, values)]
    buf = doctor(ref_encode(gaps), edits) + pad
    kind, got = outcome(decode_sorted, buf, len(values))
    want = outcome(ref_sorted, buf, len(values))
    if kind == "ok":
        got = (as_ints(got[0]), got[1])
    assert (kind, got) == want
    if not edits:
        assert want == ("ok", (values, len(buf) - len(pad)))


@relaxed
@given(
    st.lists(
        st.tuples(st.lists(st.one_of(ids, small), max_size=12, unique=True), padding, doctoring),
        min_size=1,
        max_size=6,
    )
)
def test_decode_sorted_segments_agrees(rows):
    """The segmented decoder tries each rejection over *all* rows before the
    next one, so it reports the earliest stage any row fails at."""
    streams, counts = [], []
    for values, pad, edits in rows:
        values = sorted(values)
        gaps = [b - a for a, b in zip([0] + values, values)]
        streams.append(doctor(ref_encode(gaps), edits) + pad)
        counts.append(len(values))
    width = max(1, max(map(len, streams)))
    # Zero fill terminates: a short row is padding, as in a grDB sub-block.
    matrix = np.zeros((len(rows), width), dtype=np.uint8)
    for i, stream in enumerate(streams):
        matrix[i, : len(stream)] = np.frombuffer(stream, dtype=np.uint8)
    want = [outcome(ref_sorted, bytes(matrix[i]), count) for i, count in enumerate(counts)]
    kind, got = outcome(decode_sorted_segments, matrix, counts)
    rejected = [w[1] for w in want if w[0] == "reject"]
    if rejected:
        assert (kind, got) == ("reject", min(rejected, key=STAGE.get))
        return
    values, offsets, consumed = got
    assert kind == "ok" and values.dtype == np.uint64
    for i, (_, (ref_values, ref_consumed)) in enumerate(want):
        assert as_ints(values[offsets[i] : offsets[i + 1]]) == ref_values
        assert consumed[i] == ref_consumed


def edge_streams(pairs) -> bytes:
    """The two gap streams of ``pairs``, built without the production encoder."""
    pairs = sorted(pairs)
    sgaps = [b[0] - a[0] for a, b in zip([(0, 0)] + pairs, pairs)]
    dgaps = [
        b[1] - a[1] if i and b[0] == a[0] else b[1]
        for i, (a, b) in enumerate(zip([(0, 0)] + pairs, pairs))
    ]
    return ref_encode(sgaps) + ref_encode(dgaps)


edge_lists = st.lists(st.tuples(st.one_of(ids, small), st.one_of(ids, small)), max_size=50)


@relaxed
@given(edge_lists, padding, doctoring, st.integers(0, 2))
def test_edge_block_decoders_agree(pairs, pad, edits, repeats):
    pairs = pairs + pairs[:repeats]  # a duplicate edge is legal in a log record
    buf = edge_streams(pairs)
    assert encode_edge_block(np.array(pairs, dtype=np.uint64).reshape(-1, 2)) == buf
    assert edge_block_bytes(np.array(pairs, dtype=np.uint64).reshape(-1, 2)) == len(buf)
    buf = doctor(buf, edits) + pad
    want = outcome(ref_edge_block, buf, len(pairs))
    kind, got = outcome(decode_edge_block, buf, len(pairs))
    gkind, groups = outcome(decode_edge_groups, buf, len(pairs))
    if kind == "reject":
        assert (kind, got) == want == (gkind, groups)
        return
    edges, consumed = got
    assert edges.dtype == np.int64 and edges.shape == (len(pairs), 2)
    assert ("ok", (list(map(tuple, as_ints(edges))), consumed)) == want
    if not edits:
        assert want == ("ok", (sorted(pairs), len(buf) - len(pad)))
    # The grouped entry point is the same record as its own CSR.
    sources, offsets, dsts, gconsumed = groups
    assert gkind == "ok" and gconsumed == consumed
    assert {a.dtype for a in (sources, offsets, dsts)} == {np.dtype(np.int64)}
    assert np.all(np.diff(sources) > 0) and np.all(np.diff(offsets) > 0)
    assert as_ints(np.repeat(sources, np.diff(offsets))) == as_ints(edges[:, 0])
    assert as_ints(dsts) == as_ints(edges[:, 1])
    assert offsets[0] == 0 and offsets[-1] == len(pairs)


# -- one named case per rejection branch of the edge-block decoder ----------------

TOP = MAX_ENCODABLE
TEN = b"\x80" * 9 + b"\x01"  # a ten-byte group: never canonical

EDGE_BLOCK_REJECTIONS = {
    # name: (bytes, nedges, kind, what the message names)
    "truncated sources": (b"\x05\x80\x80", 2, "truncated", "sources"),
    "truncated destinations": (ref_encode([1, 0, 3]) + ref_encode([2, 1])[:-1] + b"\x80", 3, "truncated", "destinations"),
    "ten-byte source group": (TEN + b"\x01", 1, "canonical", "sources"),
    "ten-byte destination group": (b"\x01" + TEN, 1, "canonical", "destinations"),
    "decreasing sources": (ref_encode([TOP, TOP, 5]) + ref_encode([1, 1, 1]), 3, "non-monotone", "sources decrease"),
    "in-group destination decrease": (ref_encode([7, 0, 0]) + ref_encode([TOP, TOP, 5]), 3, "non-monotone", "in-group destinations decrease"),
    "source past 63 bits": (ref_encode([TOP, 1]) + ref_encode([0, 0]), 2, "63-bit", "exceeds"),
    "destination past 63 bits": (ref_encode([7, 0]) + ref_encode([TOP, 1]), 2, "63-bit", "exceeds"),
    # A bad source group outranks the short destination stream behind it.
    "ten-byte source group, then truncated": (TEN + b"\x80", 1, "canonical", "sources"),
}


@pytest.mark.parametrize("name", sorted(EDGE_BLOCK_REJECTIONS))
@pytest.mark.parametrize("decode", [decode_edge_block, decode_edge_groups])
def test_edge_block_rejection_branch(decode, name):
    buf, nedges, kind, names = EDGE_BLOCK_REJECTIONS[name]
    assert outcome(ref_edge_block, buf, nedges) == ("reject", kind)
    with pytest.raises(GraphStorageException, match=KINDS[kind]) as err:
        decode(buf, nedges, "log record")
    assert names in str(err.value) and "log record" in str(err.value)


def test_nine_byte_groups_are_the_limit_not_an_error():
    buf = ref_encode([TOP]) + ref_encode([TOP])
    assert len(buf) == 18
    sources, offsets, dsts, consumed = decode_edge_groups(buf + b"\xff", 1)
    assert (as_ints(sources), as_ints(offsets), as_ints(dsts), consumed) == ([TOP], [0, 1], [TOP], 18)


# -- edge_block_bytes measures without encoding --------------------------------------


@pytest.mark.parametrize(
    "edges",
    [
        np.zeros((0, 2), dtype=np.int64),
        [(5, 9)],
        [(3, 1), (3, 1), (3, 1)],
        [(4, 900), (4, 2), (4, 1 << 40), (4, 2)],
        [(1 << 50, 0), (0, 1 << 50), (127, 128), (128, 127), (0, 0)],
    ],
    ids=["empty", "one edge", "duplicates", "one source", "mixed widths"],
)
def test_edge_block_bytes_is_the_encoded_length(edges):
    assert edge_block_bytes(edges) == len(encode_edge_block(edges))
    assert isinstance(edge_block_bytes(edges), int)
