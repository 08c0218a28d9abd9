"""Unit and property tests for repro.util.bitset."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import Bitset


def test_bounds():
    b = Bitset(10)
    with pytest.raises(IndexError):
        b.set_many([10])
    with pytest.raises(IndexError):
        b.get_many([-1])
    with pytest.raises(ValueError):
        Bitset(-1)


def test_set_many_and_get_many():
    b = Bitset(1000)
    idxs = np.array([0, 63, 64, 65, 500, 999])
    b.set_many(idxs)
    assert b.get_many(idxs).all()
    assert not b.get_many([1, 2, 66]).any()
    assert b.to_indices().tolist() == idxs.tolist()


def test_set_many_duplicate_indices():
    b = Bitset(100)
    b.set_many([5, 5, 5, 6])
    assert b.to_indices().tolist() == [5, 6]


def test_set_many_empty():
    b = Bitset(10)
    b.set_many([])
    assert b.to_indices().size == 0
    assert b.get_many([]).shape == (0,)


def test_set_many_bounds():
    b = Bitset(10)
    with pytest.raises(IndexError):
        b.set_many([3, 11])


def test_to_indices_and_clear_all():
    b = Bitset(200)
    b.set_many([3, 100, 199])
    assert b.to_indices().tolist() == [3, 100, 199]
    b.words[:] = 0  # clear every bit through the live word view
    assert b.to_indices().size == 0
    assert not b.get_many([3, 100, 199]).any()


def test_zero_size():
    b = Bitset(0)
    assert b.words.size == 0
    assert b.to_indices().size == 0
    assert b.get_many([]).shape == (0,)


@given(st.sets(st.integers(min_value=0, max_value=499)))
def test_matches_python_set(idxs):
    b = Bitset(500)
    b.set_many(list(idxs))
    assert b.to_indices().tolist() == sorted(idxs)
    mask = b.get_many(np.arange(500))
    assert set(np.nonzero(mask)[0].tolist()) == idxs


# --- raw-word API (bitmap fringe exchange) ---------------------------------


def _reference_indices(words, nbits):
    """Bit positions via numpy's own unpackbits, as an oracle."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:nbits]
    return np.nonzero(bits)[0]


@given(st.sets(st.integers(min_value=0, max_value=1022)))
def test_count_and_indices_match_unpackbits(idxs):
    b = Bitset(1023)  # deliberately not a multiple of 64
    b.set_many(sorted(idxs))
    ref = _reference_indices(b.words, 1023)
    assert len(b.to_indices()) == len(ref) == len(idxs)
    assert b.to_indices().tolist() == ref.tolist()


def test_words_is_live_view():
    b = Bitset(128)
    w = b.words
    b.set_many([70])
    assert w[1] == np.uint64(1) << np.uint64(6)


def test_or_words_merges():
    a, b = Bitset(200), Bitset(200)
    a.set_many([0, 64, 150])
    b.set_many([64, 65, 199])
    a.or_words(b.words)
    assert set(a.to_indices().tolist()) == {0, 64, 65, 150, 199}
    assert set(b.to_indices().tolist()) == {64, 65, 199}  # source untouched


def test_or_words_rejects_wrong_length():
    a = Bitset(200)
    with pytest.raises(ValueError):
        a.or_words(np.zeros(1, dtype=np.uint64))
