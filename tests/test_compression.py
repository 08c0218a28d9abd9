"""Delta+varint compressed adjacency (``repro.util.varint`` and friends).

Covers the codec itself (property round-trips, corruption detection), the
compressed grDB sub-block format and StreamDB log records, crash recovery
of compressed stores, and deployment-level equivalence: every backend must
answer queries bit-identically with ``compress_adjacency`` on and off,
across the batch-I/O / direction-opt / replication / shared-scan knobs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.graphdb import AdjacencyBatch, GrDB, GrDBFormat
from repro.graphdb.grdb.defrag import chain_length, defragment
from repro.graphdb.grdb.format import (
    COMPRESSED_COUNT_CAP,
    EMPTY_SLOT,
    MAX_VERTEX_ID,
    encode_pointer,
)
from repro.graphdb.registry import BACKENDS
from repro.graphdb.stream_db import StreamGraphDB
from repro.simcluster import BlockDevice, DiskFault, FaultPlan, NodeSpec, SimNode
from repro.util.errors import (
    CorruptBlockError,
    DeviceFailedError,
    GraphStorageException,
)
from repro.util.varint import (
    MAX_ENCODABLE,
    decode_edge_block,
    decode_sorted,
    decode_sorted_segments,
    decode_varints,
    edge_block_bytes,
    encode_edge_block,
    encode_sorted,
    encode_sorted_segments,
    encode_varints,
    fit_sorted_segments,
    sorted_encoded_size,
    split_sorted_fit,
    varint_lengths,
)

from .helpers import make_store

# Tiny geometry so multi-level chains and multi-file layouts occur at test
# scale (same shape the persistence/integrity tests use).
FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
)
FMT_C = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
    compress=True,
)

ids = st.integers(min_value=0, max_value=MAX_ENCODABLE)


# -- codec properties --------------------------------------------------------


class TestVarintCodec:
    @given(st.lists(ids, max_size=200))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_varints_round_trip(self, values):
        buf = encode_varints(values)
        assert len(buf) == int(varint_lengths(values).sum()) if values else buf == b""
        decoded, consumed = decode_varints(buf, len(values))
        assert consumed == len(buf)
        assert decoded.tolist() == values

    @given(
        st.lists(
            st.builds(
                lambda k, off: min(max((1 << (7 * k)) + off, 0), MAX_ENCODABLE),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=-2, max_value=2),
            ),
            max_size=60,
        )
    )
    @settings(deadline=None)
    def test_lengths_at_the_seven_bit_boundaries(self, values):
        """The binary search over the thresholds is the nine compares it replaced."""
        v = np.array(values, dtype=np.uint64)
        thresholds = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)
        want = 1 + (v[:, None] >= thresholds[None, :]).sum(axis=1)
        got = varint_lengths(v)
        assert got.tolist() == want.tolist() and got.dtype == want.dtype
        with pytest.raises(GraphStorageException, match="63-bit range"):
            varint_lengths(np.append(v, np.uint64(MAX_ENCODABLE + 1)))

    @given(st.sets(ids, max_size=200))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sorted_round_trip(self, values):
        values = sorted(values)
        buf = encode_sorted(np.array(values, dtype=np.uint64))
        assert len(buf) == sorted_encoded_size(np.array(values, dtype=np.uint64))
        decoded, consumed = decode_sorted(buf, len(values))
        assert consumed == len(buf)
        assert decoded.tolist() == values

    def test_empty_and_single(self):
        assert encode_sorted(np.empty(0, dtype=np.uint64)) == b""
        assert decode_sorted(b"", 0)[0].tolist() == []
        for v in (0, 1, 127, 128, MAX_ENCODABLE):
            buf = encode_sorted(np.array([v], dtype=np.uint64))
            assert decode_sorted(buf, 1)[0].tolist() == [v]

    def test_huge_ids(self):
        values = [MAX_ENCODABLE - 2, MAX_ENCODABLE - 1, MAX_ENCODABLE]
        buf = encode_sorted(np.array(values, dtype=np.uint64))
        assert decode_sorted(buf, 3)[0].tolist() == values

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphStorageException, match="63-bit"):
            encode_varints(np.array([MAX_ENCODABLE + 1], dtype=np.uint64))

    def test_duplicates_rejected(self):
        with pytest.raises(GraphStorageException, match="strictly increasing"):
            encode_sorted(np.array([3, 3], dtype=np.uint64))

    def test_unsorted_rejected(self):
        with pytest.raises(GraphStorageException, match="strictly increasing"):
            encode_sorted(np.array([5, 2], dtype=np.uint64))

    def test_truncated_stream_raises(self):
        buf = encode_sorted(np.array([1, 300, 70000], dtype=np.uint64))
        with pytest.raises(GraphStorageException, match="truncated"):
            decode_sorted(buf[:-1], 3)
        with pytest.raises(GraphStorageException, match="truncated"):
            decode_varints(b"\x80\x80", 1)

    def test_zero_gap_raises(self):
        # encode_sorted can never produce a zero gap; a hand-built one is
        # proof of on-disk damage and must not decode to a duplicate.
        buf = encode_varints(np.array([7, 0], dtype=np.uint64))
        with pytest.raises(GraphStorageException, match="zero gap"):
            decode_sorted(buf, 2)

    def test_overlong_varint_raises(self):
        with pytest.raises(GraphStorageException, match="canonical"):
            decode_varints(b"\x80" * 9 + b"\x01", 1)

    def test_wraparound_raises(self):
        # first value + gap overflows 64 bits -> cumsum wraps -> corrupt.
        buf = encode_varints(
            np.array([MAX_ENCODABLE, MAX_ENCODABLE], dtype=np.uint64)
        )
        with pytest.raises(GraphStorageException, match="non-monotone|63-bit"):
            decode_sorted(buf, 2)

    @given(
        st.lists(st.tuples(ids, ids), min_size=0, max_size=120),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_edge_block_round_trip(self, pairs):
        # Duplicate edges are legal in a log record and must survive.
        pairs = pairs + pairs[:3]
        edges = np.array(pairs, dtype=np.uint64).reshape(-1, 2)
        buf = encode_edge_block(edges)
        assert len(buf) == edge_block_bytes(edges)
        decoded, consumed = decode_edge_block(buf, len(edges))
        assert consumed == len(buf)
        want = sorted(map(tuple, edges.astype(np.int64).tolist()))
        assert sorted(map(tuple, decoded.tolist())) == want

    def test_edge_block_truncation_raises(self):
        edges = np.array([(1, 2), (1, 3), (4, 5)], dtype=np.uint64)
        buf = encode_edge_block(edges)
        with pytest.raises(GraphStorageException, match="truncated"):
            decode_edge_block(buf[:-1], 3)

    @given(
        st.lists(ids, min_size=1, max_size=150),
        st.integers(min_value=1, max_value=64),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_split_sorted_fit_invariants(self, values, budget):
        pending = np.sort(np.array(values, dtype=np.uint64))
        fit, spill = split_sorted_fit(pending, budget, 0xFFFE)
        # The fit is strictly sorted and its encoding honors the budget.
        assert len(encode_sorted(fit)) <= budget
        # Nothing is lost: fit + spill is the original multiset.
        merged = np.sort(np.concatenate([fit, spill]))
        assert merged.tolist() == pending.tolist()
        # The spill stays sorted, ready for the next sub-block.
        assert np.all(spill[1:] >= spill[:-1]) if len(spill) > 1 else True


# -- grDB compressed sub-blocks ----------------------------------------------


def _random_edges(rng, nverts, nedges, dup_every=10):
    srcs = rng.integers(0, nverts, nedges)
    dsts = rng.integers(0, 1 << 40, nedges)
    if nedges > 2 * dup_every:
        dsts[:dup_every] = dsts[dup_every : 2 * dup_every]  # duplicate edges
    return np.column_stack([srcs, dsts]).astype(np.int64)


class TestGrDBCompressed:
    @pytest.mark.parametrize("policy", ["link", "move"])
    def test_matches_raw_format(self, policy):
        rng = np.random.default_rng(7)
        node_r, node_c = SimNode(0, NodeSpec()), SimNode(1, NodeSpec())
        raw = GrDB(node_r.disk, fmt=FMT, clock=node_r.clock, growth_policy=policy)
        comp = GrDB(node_c.disk, fmt=FMT_C, clock=node_c.clock, growth_policy=policy)
        for _ in range(4):
            edges = _random_edges(rng, 12, 150)
            raw.store_edges(edges)
            comp.store_edges(edges)
        for v in range(12):
            assert sorted(raw.get_adjacency(v).tolist()) == sorted(
                comp.get_adjacency(v).tolist()
            )
        out_r, out_c = (db.expand_fringe(list(range(12))) for db in (raw, comp))
        assert sorted(out_r.tolist()) == sorted(out_c.tolist())
        # A sweep delivers a chained list in pieces: group before comparing.
        scan_r, scan_c = (
            {v: sorted(a.tolist()) for v, a in AdjacencyBatch.concat(db.scan_adjacency()).grouped()}
            for db in (raw, comp)
        )
        assert scan_r == scan_c and sorted(scan_r) == list(range(12))

    def test_duplicate_edges_preserved(self):
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=FMT_C, clock=node.clock)
        db.store_edges(np.array([(1, 9), (1, 9), (1, 9), (1, 4)], dtype=np.int64))
        assert sorted(db.get_adjacency(1).tolist()) == [4, 9, 9, 9]

    def test_chains_are_shorter(self):
        rng = np.random.default_rng(9)
        node_r, node_c = SimNode(0, NodeSpec()), SimNode(1, NodeSpec())
        raw = GrDB(node_r.disk, fmt=FMT, clock=node_r.clock)
        comp = GrDB(node_c.disk, fmt=FMT_C, clock=node_c.clock)
        edges = np.column_stack(
            [np.zeros(300, dtype=np.int64), rng.choice(1 << 30, 300, replace=False)]
        ).astype(np.int64)
        raw.store_edges(edges)
        comp.store_edges(edges)
        assert chain_length(comp, 0) < chain_length(raw, 0)

    def test_reopen_preserves_adjacency(self):
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=FMT_C, clock=node.clock)
        edges = _random_edges(np.random.default_rng(5), 10, 200)
        db.store_edges(edges)
        db.flush()
        want = {v: sorted(db.get_adjacency(v).tolist()) for v in range(10)}
        db2 = GrDB(node.disk, fmt=FMT_C, clock=node.clock)
        assert db2.restored
        assert {v: sorted(db2.get_adjacency(v).tolist()) for v in range(10)} == want
        assert db2.local_vertices().tolist() == db.local_vertices().tolist()

    def test_reopen_finds_count_zero_heads(self):
        """Restore reads occupancy off frame headers and tail words alone.

        Vertex 3's only neighbor needs an 8-byte varint, more than a level-0
        frame's 6 payload bytes, so its head stores count 0 and a pointer —
        occupied all the same.  Vertex 2 shares the block and was never
        written; vertex 5 is an ordinary head.
        """
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=FMT_C, clock=node.clock)
        db.store_edges(np.array([(3, 1 << 50), (5, 7), (40, 1 << 55), (40, 9)], dtype=np.int64))
        db.flush()
        head, _, _ = FMT_C.decode_subblock(db.storage.read_subblock(0, 3))
        assert len(head) == 0 and len(db.chain_of(3)) == 2
        db2 = GrDB(node.disk, fmt=FMT_C, clock=node.clock)
        assert db2.restored
        assert db2.local_vertices().tolist() == [3, 5, 40]
        assert db2.get_adjacency(3).tolist() == [1 << 50]
        assert sorted(db2.get_adjacency(40).tolist()) == [9, 1 << 55]

    def test_format_mode_mismatch_rejected(self):
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=FMT_C, clock=node.clock)
        db.store_edges(np.array([(0, 1)], dtype=np.int64))
        db.flush()
        with pytest.raises(GraphStorageException, match="format differs"):
            GrDB(node.disk, fmt=FMT, clock=node.clock)

    def test_defragment_compressed_chains(self):
        rng = np.random.default_rng(13)
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=FMT_C, clock=node.clock, growth_policy="link")
        for _ in range(6):
            db.store_edges(_random_edges(rng, 6, 120))
        before = {v: sorted(db.get_adjacency(v).tolist()) for v in range(6)}
        chains = [chain_length(db, v) for v in range(6)]
        defragment(db)
        for v in range(6):
            assert sorted(db.get_adjacency(v).tolist()) == before[v]
            assert chain_length(db, v) <= chains[v]
        assert sum(chain_length(db, v) for v in range(6)) < sum(chains)

    def test_corrupt_subblock_interior_raises(self):
        fmt = FMT_C
        good = fmt.encode_subblock(
            2, np.array([5, 9, 17], dtype=np.uint64), (1 << 64) - 1
        )
        # A zero gap in the delta stream decodes to a duplicate neighbor.
        bad = bytes(good[:2]) + encode_varints(
            np.array([5, 0, 8], dtype=np.uint64)
        )
        bad = bad + b"\x00" * (len(good) - len(bad) - 8) + good[-8:]
        with pytest.raises(GraphStorageException, match="zero gap"):
            fmt.decode_subblock(bad)

    def test_encode_subblock_budget_enforced(self):
        too_many = np.arange(0, 10_000_000, 17, dtype=np.uint64)[:3000]
        with pytest.raises(GraphStorageException, match="overflows"):
            FMT_C.encode_subblock(0, too_many[:50], (1 << 64) - 1)


# -- segmented (batch) decode, fit and encode --------------------------------

frame_values = st.sets(st.integers(min_value=0, max_value=MAX_VERTEX_ID), max_size=40)
frame_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=FMT_C.num_levels - 1),
        st.sampled_from(["never-written", "pointer-only", "values"]),
        frame_values,
        st.booleans(),  # chained on (pointer tail) or chain end
    ),
    max_size=24,
)


def _frame(level: int, kind: str, values, chained: bool) -> bytes:
    if kind == "never-written":
        return FMT_C.empty_subblock(level)
    if kind == "pointer-only":
        return FMT_C.encode_subblock(level, np.empty(0, dtype=np.uint64), encode_pointer(1, 3))
    tail = encode_pointer(min(level + 1, FMT_C.num_levels - 1), 11) if chained else EMPTY_SLOT
    fit, _ = split_sorted_fit(
        np.array(sorted(values), dtype=np.uint64), FMT_C.payload_bytes(level), COMPRESSED_COUNT_CAP
    )
    return FMT_C.encode_subblock(level, fit, tail)


def _matrix(frames: list[bytes], width: int = FMT_C.subblock_bytes(2)) -> np.ndarray:
    return np.frombuffer(b"".join(frames), dtype=np.uint8).reshape(len(frames), width)


class TestSegmentedDecode:
    @given(frame_specs)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_equals_frame_by_frame(self, specs):
        """One codec call per level decodes what ``decode_subblock`` does
        frame by frame: values, tails and consumed bytes."""
        for level in range(FMT_C.num_levels):
            frames = [_frame(lv, kind, vals, ch) for lv, kind, vals, ch in specs if lv == level]
            values, offsets, tails, consumed = FMT_C.decode_subblocks(
                level, np.arange(len(frames)), _matrix(frames, FMT_C.subblock_bytes(level))
            )
            assert len(offsets) == len(frames) + 1 and offsets[-1] == len(values)
            for i, frame in enumerate(frames):
                want, tail, used = FMT_C.decode_subblock(frame)
                assert values[offsets[i] : offsets[i + 1]].tolist() == want.tolist()
                assert (int(tails[i]), int(consumed[i])) == (tail, used)

    def test_raw_slots_take_the_same_path(self):
        slots = np.array(
            [[5, 9, EMPTY_SLOT, EMPTY_SLOT], [1, 2, 3, encode_pointer(2, 7)], [EMPTY_SLOT] * 4],
            dtype="<u8",
        )
        values, offsets, tails, consumed = FMT.decode_subblocks(
            1, np.arange(3), slots.view(np.uint8)
        )
        assert values.tolist() == [5, 9, 1, 2, 3]
        assert offsets.tolist() == [0, 2, 5, 5]
        assert tails.tolist() == slots[:, -1].tolist() and not consumed.any()

    def test_codec_level_api(self):
        streams = np.zeros((3, 8), dtype=np.uint8)
        first = np.frombuffer(encode_sorted(np.array([5, 9, 300], dtype=np.uint64)), np.uint8)
        streams[0, : len(first)] = first
        streams[2, :1] = 7
        values, offsets, consumed = decode_sorted_segments(streams, [3, 0, 1])
        assert values.tolist() == [5, 9, 300, 7]
        assert offsets.tolist() == [0, 3, 3, 4] and consumed.tolist() == [4, 0, 1]
        with pytest.raises(GraphStorageException, match="one matrix row per non-negative count"):
            decode_sorted_segments(streams, [1, 2])

    @given(frame_specs)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_encode_equals_frame_by_frame(self, specs):
        """``encode_subblocks`` is ``decode_subblocks`` backwards: one call
        per level frames what ``encode_subblock`` frames one by one."""
        for level in range(FMT_C.num_levels):
            frames = [
                _frame(lv, kind, vals, ch)
                for lv, kind, vals, ch in specs
                if lv == level and kind != "never-written"
            ]
            matrix = _matrix(frames, FMT_C.subblock_bytes(level))
            values, offsets, tails, _ = FMT_C.decode_subblocks(
                level, np.arange(len(frames)), matrix
            )
            again = FMT_C.encode_subblocks(level, values, offsets, tails)
            assert again.tobytes() == matrix.tobytes()

    @given(
        st.lists(
            st.tuples(st.lists(ids, max_size=40), st.integers(min_value=0, max_value=64)),
            max_size=8,
        ),
        st.integers(min_value=1, max_value=12),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_segmented_fit_equals_split_sorted_fit(self, segments, max_count):
        lists = [np.sort(np.array(vals, dtype=np.uint64)) for vals, _ in segments]
        offsets = np.concatenate(([0], np.cumsum([len(x) for x in lists]))).astype(np.int64)
        pending = np.concatenate([np.empty(0, dtype=np.uint64), *lists])
        fit, taken = fit_sorted_segments(pending, offsets, [b for _, b in segments], max_count)
        for i, (values, (_, budget)) in enumerate(zip(lists, segments)):
            want_fit, want_spill = split_sorted_fit(values, budget, max_count)
            mine = fit[offsets[i] : offsets[i + 1]]
            assert values[mine].tolist() == want_fit.tolist()
            assert values[~mine].tolist() == want_spill.tolist()
            assert taken[i] == len(want_fit)

    def test_segmented_encode_rejections(self):
        with pytest.raises(GraphStorageException, match="strictly increasing"):
            encode_sorted_segments(np.array([1, 5, 5], dtype=np.uint64), [0, 1, 3], 8)
        with pytest.raises(GraphStorageException, match="delta stream 1 of 3 bytes"):
            encode_sorted_segments(np.array([9, 1, 300], dtype=np.uint64), [0, 1, 3], 2)
        # 9 > 1 across a segment boundary is fine; an empty list is a zero row.
        rows = encode_sorted_segments(np.array([9, 1], dtype=np.uint64), [0, 1, 1, 2], 2)
        assert rows.tolist() == [[9, 0], [0, 0], [1, 0]]
        with pytest.raises(GraphStorageException, match="count cap"):
            GrDBFormat(compress=True).encode_subblocks(
                5, np.arange(COMPRESSED_COUNT_CAP + 1), [0, COMPRESSED_COUNT_CAP + 1], [EMPTY_SLOT]
            )

    # Corrupt frames, each with a valid header and tail; built on level 2
    # (118 payload bytes) so every corruption fits.
    CORRUPT = {
        "truncated": (1, b"\x80" * FMT_C.payload_bytes(2), "truncated"),
        "zero gap": (3, encode_varints(np.array([5, 0, 8], dtype=np.uint64)), "zero gap"),
        "10-byte group": (1, b"\x80" * 9 + b"\x01", "canonical 9 bytes"),
        "id past 2^61": (1, encode_varints(np.array([MAX_VERTEX_ID + 1], dtype=np.uint64)), "exceeds"),
        "wrap-around": (
            3,
            encode_varints(np.array([MAX_ENCODABLE, MAX_ENCODABLE, 5], dtype=np.uint64)),
            "decrease",
        ),
    }

    @staticmethod
    def _corrupt_frame(kind: str) -> tuple[bytes, str]:
        count, payload, message = TestSegmentedDecode.CORRUPT[kind]
        budget = FMT_C.payload_bytes(2)
        frame = (
            count.to_bytes(2, "little")
            + payload
            + b"\x00" * (budget - len(payload))
            + EMPTY_SLOT.to_bytes(8, "little")
        )
        return frame, message

    @pytest.mark.parametrize("kind", sorted(CORRUPT))
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_corruption_names_the_subblock(self, kind, position):
        """The batch path rejects what the one-frame path rejects, and says
        which (level, sub-block) it was; the good frames around it are
        irrelevant."""
        bad, message = self._corrupt_frame(kind)
        with pytest.raises(GraphStorageException):
            FMT_C.decode_subblock(bad)
        good = [
            _frame(2, "values", {3, 1 << 40, 77}, True),
            _frame(2, "never-written", (), False),
            _frame(2, "values", set(range(0, 90, 3)), False),
            _frame(2, "pointer-only", (), True),
        ]
        frames = good[:position] + [bad] + good[position:]
        subblocks = np.arange(100, 100 + len(frames))
        with pytest.raises(GraphStorageException, match=message) as err:
            FMT_C.decode_subblocks(2, subblocks, _matrix(frames))
        assert f"level-2 sub-block {100 + position} " in str(err.value)

    @pytest.mark.parametrize("kind", sorted(CORRUPT))
    def test_corruption_surfaces_through_expand_and_scan(self, kind):
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=FMT_C, clock=node.clock)
        edges = np.column_stack(
            [np.repeat(np.arange(6), 30), np.tile(np.arange(1000, 1090, 3), 6)]
        ).astype(np.int64)
        db.store_edges(edges)
        level, sb = next(link for link in db.chain_of(4) if link[0] == 2)
        db.storage.write_subblock(level, sb, self._corrupt_frame(kind)[0])
        with pytest.raises(GraphStorageException, match=f"level-2 sub-block {sb} "):
            db.expand_fringe(np.arange(6))
        with pytest.raises(GraphStorageException, match=f"level-2 sub-block {sb} "):
            list(db.scan_adjacency())


# -- StreamDB compressed log -------------------------------------------------


class TestStreamDBCompressed:
    def _pair(self):
        node = SimNode(0, NodeSpec())
        raw = StreamGraphDB(node.disk("raw_log"), clock=node.clock)
        comp = StreamGraphDB(node.disk("comp_log"), compress=True, clock=node.clock)
        return node, raw, comp

    def test_matches_raw_log(self):
        rng = np.random.default_rng(2)
        _, raw, comp = self._pair()
        for _ in range(3):
            edges = _random_edges(rng, 20, 4000)
            raw.store_edges(edges)
            comp.store_edges(edges)
        for v in range(20):
            assert sorted(raw.get_adjacency(v).tolist()) == sorted(
                comp.get_adjacency(v).tolist()
            )
        out_r, out_c = (db.expand_fringe(list(range(20))) for db in (raw, comp))
        assert sorted(out_r.tolist()) == sorted(out_c.tolist())

    def test_log_is_smaller(self):
        rng = np.random.default_rng(4)
        _, raw, comp = self._pair()
        edges = _random_edges(rng, 50, 6000)
        raw.store_edges(edges)
        comp.store_edges(edges)
        raw.flush()
        comp.flush()
        assert comp.device.size() < raw.device.size() / 2

    def test_restore_compressed_commits(self):
        node = SimNode(0, NodeSpec())
        dev, meta = node.disk("log"), node.disk("log_meta")
        db = StreamGraphDB(dev, meta_device=meta, compress=True, clock=node.clock)
        edges = _random_edges(np.random.default_rng(6), 8, 900)
        db.store_edges(edges)
        db.flush()
        want = {v: sorted(db.get_adjacency(v).tolist()) for v in range(8)}
        db2 = StreamGraphDB(dev, meta_device=meta, compress=True, clock=node.clock)
        assert db2.restored
        assert {v: sorted(db2.get_adjacency(v).tolist()) for v in range(8)} == want
        assert db2.num_edges_logged == db.num_edges_logged

    def test_restore_truncates_uncommitted_debris(self):
        node = SimNode(0, NodeSpec())
        dev, meta = node.disk("log"), node.disk("log_meta")
        db = StreamGraphDB(dev, meta_device=meta, compress=True, clock=node.clock)
        edges = _random_edges(np.random.default_rng(8), 5, 400)
        db.store_edges(edges)
        db.flush()
        want = {v: sorted(db.get_adjacency(v).tolist()) for v in range(5)}
        # A crash mid-append leaves torn record bytes past the commit.
        dev.write(db._cbytes, b"\xde\xad" * 64)
        db2 = StreamGraphDB(dev, meta_device=meta, compress=True, clock=node.clock)
        assert db2.restored
        assert {v: sorted(db2.get_adjacency(v).tolist()) for v in range(5)} == want

    def test_mode_mismatch_rejected_both_ways(self):
        node = SimNode(0, NodeSpec())
        for compress in (True, False):
            dev = node.disk(f"log{compress}")
            meta = node.disk(f"log{compress}_meta")
            db = StreamGraphDB(
                dev, meta_device=meta, compress=compress, clock=node.clock
            )
            db.store_edges(np.array([(0, 1)], dtype=np.int64))
            db.flush()
            with pytest.raises(GraphStorageException, match="mode mismatch"):
                StreamGraphDB(
                    dev, meta_device=meta, compress=not compress, clock=node.clock
                )

    def test_truncated_log_raises(self):
        dev = BlockDevice()
        db = StreamGraphDB(dev, compress=True)
        db.store_edges(np.array([(0, 1), (0, 2), (1, 3)], dtype=np.int64))
        db.flush()
        dev.truncate(8)
        with pytest.raises(CorruptBlockError, match="truncated log"):
            db.get_adjacency(0)

    def test_bad_record_magic_raises(self):
        dev = BlockDevice()
        db = StreamGraphDB(dev, compress=True)
        db.store_edges(np.array([(0, 1), (0, 2)], dtype=np.int64))
        db.flush()
        dev.write(0, b"\x00\x00\x00\x00")
        with pytest.raises(CorruptBlockError, match="magic"):
            db.get_adjacency(0)


# -- deployment-level equivalence -------------------------------------------


def _workload(seed=17, nverts=160, nedges=1400):
    rng = np.random.default_rng(seed)
    # A connected-ish core plus random chords, so BFS has real distances.
    spine = np.column_stack([np.arange(nverts - 1), np.arange(1, nverts)])
    chords = np.column_stack(
        [rng.integers(0, nverts, nedges), rng.integers(0, nverts, nedges)]
    )
    return np.vstack([spine, chords]).astype(np.int64)


_QUERIES = [(0, 150), (3, 77), (10, 11), (42, 139), (5, 5)]


def _answers(compress, backend, **cfg_kw):
    mssg = MSSG(
        MSSGConfig(
            num_backends=3,
            num_frontends=1,
            backend=backend,
            cache_blocks=8,
            compress_adjacency=compress,
            **cfg_kw,
        )
    )
    try:
        mssg.ingest(_workload())
        # Compare answers, not execution statistics: direction-opt may
        # legitimately pick different scan directions when compressed reads
        # are cheaper, changing edges_scanned without changing any result.
        return [
            (r.result, r.levels)
            for r in (mssg.query_bfs(s, d) for s, d in _QUERIES)
        ]
    finally:
        mssg.close()


class TestDeploymentEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_bit_identical(self, backend):
        assert _answers(True, backend) == _answers(False, backend)

    @pytest.mark.parametrize("backend", ["grDB", "StreamDB"])
    @pytest.mark.parametrize(
        "knobs",
        [
            {"batch_io": False},
            {"direction_opt": False},
            {"replication": 2},
            {"shared_scans": False},
            {"batch_io": False, "direction_opt": False, "replication": 2},
        ],
        ids=lambda k: "+".join(f"{n}={v}" for n, v in k.items()),
    )
    def test_knob_sweep_bit_identical(self, backend, knobs):
        assert _answers(True, backend, **knobs) == _answers(False, backend, **knobs)

    def test_compression_moves_fewer_device_bytes(self):
        def bytes_read(compress):
            mssg = MSSG(
                MSSGConfig(
                    num_backends=3,
                    backend="grDB",
                    cache_blocks=0,
                    checksums=False,
                    compress_adjacency=compress,
                )
            )
            try:
                mssg.ingest(_workload())
                for s, d in _QUERIES:
                    mssg.query_bfs(s, d)
                return sum(
                    db.storage.total_device_stats()["bytes_read"] for db in mssg.dbs
                )
            finally:
                mssg.close()

        assert bytes_read(True) < bytes_read(False)


# -- crash recovery of compressed stores -------------------------------------


class TestCompressedCrashRecovery:
    def _adjacency_image(self, db):
        return {v: sorted(db.get_adjacency(v).tolist()) for v in range(30)}

    def _ingested(self, node):
        db = make_store(
            "grDB",
            node,
            grdb_format=FMT,
            cache_blocks=64,
            checksums=True,
            compress_adjacency=True,
        )
        rng = np.random.default_rng(11)
        edges = np.column_stack(
            [rng.integers(0, 30, 200), rng.integers(0, 400, 200)]
        ).astype(np.int64)
        db.store_edges(edges)
        return db

    @pytest.mark.parametrize("crash_after_ops", [0, 1, 2, 3, 5, 8, 13, 40])
    def test_wal_replay_of_compressed_flush(self, crash_after_ops):
        node = SimNode(0, NodeSpec())
        db = self._ingested(node)
        db.flush()
        published = self._adjacency_image(db)
        db.store_edges([(v, 9000 + v) for v in range(30)])
        node.install_fault_plan(
            FaultPlan([DiskFault(node=0, kind="crash", after_ops=crash_after_ops)])
        )
        try:
            db.flush()
            flushed = True
        except DeviceFailedError:
            flushed = False
        node.install_fault_plan(None)
        for dev in node._disks.values():
            dev.revive()
        db2 = make_store(
            "grDB",
            node,
            grdb_format=FMT,
            cache_blocks=64,
            checksums=True,
            compress_adjacency=True,
        )
        assert db2.restored
        assert db2.fmt.compress
        got = self._adjacency_image(db2)
        if flushed:
            assert got == self._adjacency_image(db)
        else:
            # All-or-nothing: the WAL either rolled the whole second flush
            # forward or discarded it; no torn compressed sub-blocks.
            second = {v: sorted(published[v] + [9000 + v]) for v in published}
            assert got in (published, second)

    @pytest.mark.parametrize("crash_after_ops", [0, 1, 2, 4])
    def test_streamdb_compressed_crash_mid_flush(self, crash_after_ops):
        node = SimNode(0, NodeSpec())
        db = make_store(
            "StreamDB", node, checksums=True, compress_adjacency=True
        )
        edges = _random_edges(np.random.default_rng(3), 10, 600)
        db.store_edges(edges)
        db.flush()
        published = {v: sorted(db.get_adjacency(v).tolist()) for v in range(10)}
        db.store_edges(np.array([(v, 7000 + v) for v in range(10)], dtype=np.int64))
        node.install_fault_plan(
            FaultPlan([DiskFault(node=0, kind="crash", after_ops=crash_after_ops)])
        )
        try:
            db.flush()
            flushed = True
        except DeviceFailedError:
            flushed = False
        node.install_fault_plan(None)
        for dev in node._disks.values():
            dev.revive()
        db2 = make_store(
            "StreamDB", node, checksums=True, compress_adjacency=True
        )
        got = {v: sorted(db2.get_adjacency(v).tolist()) for v in range(10)}
        if flushed:
            assert got == {v: sorted(db.get_adjacency(v).tolist()) for v in range(10)}
        else:
            second = {v: sorted(published[v] + [7000 + v]) for v in published}
            assert got in (published, second)
