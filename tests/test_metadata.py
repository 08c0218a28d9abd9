"""Tests for the in-memory and external (out-of-core) metadata stores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import ExternalMetadata, InMemoryMetadata, MetadataStore, UNSET
from repro.simcluster import BlockDevice, DiskProfile, MemoryBacking, VirtualClock


class TestInMemory:
    def test_default_unset(self):
        m = InMemoryMetadata()
        assert m.get(42) == UNSET

    def test_set_get(self):
        m = InMemoryMetadata()
        m.set(1, 5)
        m.set(2, -3)
        assert m.get(1) == 5
        assert m.get(2) == -3
        assert len(m) == 2

    def test_get_many(self):
        m = InMemoryMetadata()
        m.set(0, 1)
        m.set(5, 2)
        out = m.get_many(np.array([0, 3, 5]))
        assert out.tolist() == [1, UNSET, 2]

    def test_clear(self):
        m = InMemoryMetadata()
        m.set(0, 1)
        m.clear()
        assert m.get(0) == UNSET


class TestExternal:
    def make(self, cache_pages=4):
        return ExternalMetadata(BlockDevice(), cache_pages=cache_pages)

    def test_default_unset(self):
        m = self.make()
        assert m.get(0) == UNSET
        assert m.get(10_000_000) == UNSET

    def test_set_get_across_pages(self):
        m = self.make()
        # Straddle several 1024-value pages.
        for v in [0, 1023, 1024, 5000, 123_456]:
            m.set(v, v % 97)
        for v in [0, 1023, 1024, 5000, 123_456]:
            assert m.get(v) == v % 97
        assert m.get(2) == UNSET

    def test_negative_values(self):
        m = self.make()
        m.set(7, -5)
        assert m.get(7) == -5

    def test_get_many_groups_pages(self):
        m = self.make()
        m.set(10, 1)
        m.set(2000, 2)
        out = m.get_many(np.array([2000, 10, 11]))
        assert out.tolist() == [2, 1, UNSET]

    def test_eviction_persists_through_flush(self):
        dev = BlockDevice()
        m = ExternalMetadata(dev, cache_pages=1)
        m.set(0, 7)  # page 0
        m.set(5000, 9)  # page 4: evicts dirty page 0 to the device
        m.flush()
        assert m.get(0) == 7
        assert m.get(5000) == 9

    def test_charges_disk_time(self):
        clock = VirtualClock()
        prof = DiskProfile(seek_seconds=0.001, read_bandwidth=1e6, write_bandwidth=1e6)
        m = ExternalMetadata(BlockDevice(MemoryBacking(), prof, clock), cache_pages=1)
        m.set(0, 1)
        m.set(100_000, 2)  # far page: dirty eviction writes page 0
        m.flush()
        assert clock.now > 0


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(st.integers(0, 5000), st.integers(-(2**31), 2**31 - 2), max_size=60))
def test_external_matches_in_memory(assignments):
    ext = ExternalMetadata(BlockDevice(), cache_pages=2)
    mem = InMemoryMetadata()
    for v, x in assignments.items():
        ext.set(v, x)
        mem.set(v, x)
    probe = np.array(sorted(set(list(assignments) + [0, 999, 4999])), dtype=np.int64)
    assert ext.get_many(probe).tolist() == mem.get_many(probe).tolist()


def test_a_store_must_gather_and_scatter_itself():
    class OnlyGetSet(MetadataStore):
        def get(self, vertex):
            return UNSET

        def set(self, vertex, value):
            pass

    with pytest.raises(TypeError):
        OnlyGetSet()


def test_external_level_map_pages_like_a_search_does():
    m = ExternalMetadata(BlockDevice())
    assert m.cache.capacity == 8  # 32 KB of levels: the Fig. 5.8 ablation's cache
    m.set_many([0, 2048, 5000], 1)
    assert m.unvisited([0, 1, 2048, 2049]).tolist() == [1, 2049]
    assert m.unvisited_local(lambda: np.arange(3)).tolist() == [1, 2]
