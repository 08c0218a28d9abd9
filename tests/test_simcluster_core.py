"""Tests for virtual clocks, cost models, and the block device."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcluster import (
    BlockDevice,
    DiskProfile,
    FileBacking,
    MemoryBacking,
    VirtualClock,
)
from repro.util import payload_nbytes


class TestVirtualClock:
    def test_advance(self):
        c = VirtualClock()
        assert c.now == 0.0
        c.advance(1.5)
        assert c.now == 1.5
        c.advance(0.0)
        assert c.now == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_is_monotone(self):
        c = VirtualClock(10.0)
        c.advance_to(5.0)
        assert c.now == 10.0
        c.advance_to(12.0)
        assert c.now == 12.0

    def test_reset(self):
        c = VirtualClock(3.0)
        c.reset()
        assert c.now == 0.0


# What model code charges: zeros, subnormals, integer multiples of one unit
# cost (a list length times a per-edge cost), and arbitrary small amounts.
_cost = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True),
    st.builds(lambda n, unit: n * unit, st.integers(0, 10_000), st.sampled_from([1e-7, 3.3e-8])),
    st.floats(0.0, 1e-2, allow_nan=False, allow_infinity=False),
)
_start = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(start=_start, costs=st.lists(_cost, min_size=1, max_size=5000))
def test_advance_each_is_the_advance_loop_bit_for_bit(start, costs):
    loop, bulk = VirtualClock(start), VirtualClock(start)
    for c in costs:
        loop.advance(c)
    assert bulk.advance_each(np.array(costs)) == loop.now
    assert bulk.now.hex() == loop.now.hex()


@settings(max_examples=100, deadline=None)
@given(
    start=_start,
    costs=st.lists(_cost, max_size=50),
    bad=st.floats(max_value=-5e-324, allow_nan=False),
    at=st.integers(0, 50),
)
def test_advance_each_rejects_a_negative_entry_unmoved(start, costs, bad, at):
    costs.insert(at % (len(costs) + 1), bad)
    clock = VirtualClock(start)
    with pytest.raises(ValueError):
        clock.advance_each(costs)
    assert clock.now.hex() == float(start).hex()


def test_advance_each_is_the_loop_on_both_sides_of_the_accumulate_threshold():
    rng = np.random.default_rng(5)
    lengths = [*range(130), *(2**e + d for e in range(8, 12) for d in (-1, 0, 1)), 4095, 4096]
    for n in lengths:
        start = float(rng.uniform(-10.0, 10.0))
        costs = rng.random(n) * 10.0 ** rng.integers(-12, 0, n)
        loop, bulk = VirtualClock(start), VirtualClock(start)
        for c in costs.tolist():
            loop.advance(c)
        assert bulk.advance_each(costs).hex() == loop.now.hex(), n
        if n:  # a negative entry raises, naming itself, and the clock stays
            costs[n // 2] = -1.5e-7
            with pytest.raises(ValueError, match=re.escape("by -1.5e-07 seconds")):
                bulk.advance_each(costs)
            assert bulk.now.hex() == loop.now.hex()


class TestMemoryBacking:
    def test_roundtrip(self):
        m = MemoryBacking()
        m.write(10, b"hello")
        assert m.read(10, 5) == b"hello"
        assert m.size() == 15

    def test_sparse_read_zero_fill(self):
        m = MemoryBacking()
        m.write(0, b"ab")
        assert m.read(0, 6) == b"ab\x00\x00\x00\x00"
        assert m.read(100, 3) == b"\x00\x00\x00"


class TestFileBacking:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "dir" / "dev0"
        f = FileBacking(path)
        f.write(4096, b"xyz")
        assert f.read(4096, 3) == b"xyz"
        assert f.read(5000, 4) == b"\x00" * 4
        f.close()
        assert os.path.exists(path)
        # Reopen: contents persist.
        g = FileBacking(path)
        assert g.read(4096, 3) == b"xyz"
        g.close()


class TestBlockDevice:
    def test_charges_seek_and_transfer(self):
        prof = DiskProfile(seek_seconds=0.01, read_bandwidth=1e6, write_bandwidth=1e6)
        clock = VirtualClock()
        dev = BlockDevice(MemoryBacking(), prof, clock)
        dev.write(0, b"\x01" * 10_000)  # first op: seek + 10ms transfer
        assert clock.now == pytest.approx(0.01 + 0.01)
        dev.write(10_000, b"\x02" * 10_000)  # sequential: no seek
        assert clock.now == pytest.approx(0.03)
        dev.read(0, 100)  # random read: seek again
        assert clock.now == pytest.approx(0.03 + 0.01 + 1e-4)
        assert dev.stats.seeks == 2
        assert dev.stats.reads == 1
        assert dev.stats.writes == 2
        assert dev.stats.bytes_written == 20_000

    def test_no_profile_counts_but_charges_nothing(self):
        dev = BlockDevice()
        dev.write(0, b"abc")
        assert dev.read(0, 3) == b"abc"
        assert dev.clock.now == 0.0
        assert dev.stats.busy_seconds == 0.0
        assert dev.stats.reads == 1

    def test_negative_args_rejected(self):
        dev = BlockDevice()
        with pytest.raises(ValueError):
            dev.read(-1, 4)
        with pytest.raises(ValueError):
            dev.read(0, -4)
        with pytest.raises(ValueError):
            dev.write(-1, b"x")

    def test_sequential_detection_interleaved(self):
        prof = DiskProfile(seek_seconds=1.0, read_bandwidth=1e9, write_bandwidth=1e9)
        clock = VirtualClock()
        dev = BlockDevice(MemoryBacking(), prof, clock)
        dev.write(0, b"a" * 100)
        dev.read(100, 100)  # continues where write ended: sequential
        assert dev.stats.seeks == 1  # only the initial positioning


class TestPayloadNbytes:
    def test_scalars_and_arrays(self):
        import numpy as np

        assert payload_nbytes(None) == 0
        assert payload_nbytes(7) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("ab") == 2
        assert payload_nbytes([1, 2, 3]) == 24
        assert payload_nbytes({"a": 1}) == 9
        assert payload_nbytes((1, [2, 3])) == 24

    def test_fallback_pickle(self):
        # complex has no fast path, so it goes through the pickle fallback
        assert payload_nbytes(complex(1, 2)) > 0
