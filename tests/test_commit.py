"""The shared commit root and record frame (``repro.storage.commit``).

Every case runs on a raw device and on a CRC-framed one: a torn commit
write, at every prefix length, must leave the previous commit loadable;
a damaged slot falls back to the other one; the record reader never
yields a record past a torn or CRC-bad byte.  The delta log's device
image is pinned byte for byte.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.simcluster.disk import BlockDevice, MemoryBacking
from repro.storage.commit import RECORD_START, CommitRoot, frame_record, read_records
from repro.storage.deltalog import DeltaLog
from repro.storage.integrity import FRAME_STRIDE, wrap_device
from repro.util.errors import GraphStorageException

MAGIC = 0x544553544D414743
FIELDS = struct.Struct("<QQ")


def _device(framed):
    raw = BlockDevice(MemoryBacking())
    return (wrap_device(raw) if framed else raw), raw


def _image_after(framed, commits):
    dev, raw = _device(framed)
    root = CommitRoot(dev, MAGIC, FIELDS)
    for fields in commits:
        root.commit(*fields)
    return raw.backing.read(0, raw.size())


def _load(dev):
    return CommitRoot(dev, MAGIC, FIELDS).load()


@pytest.mark.parametrize("framed", [False, True])
def test_a_torn_commit_keeps_the_previous_one(framed):
    """Commit A (seq 2, slot 0), then land every prefix of commit B's slot
    (seq 3, slot 1, over seq 1's bytes): A loads until the slot holds all
    of B.  (A framed slot is B's as soon as B's record has landed: the
    zero padding matches, and a frame over a record followed by its own
    CRC32 always has the same trailer.)"""
    a = _image_after(framed, [(7, 7), (1, 2)])
    b = _image_after(framed, [(7, 7), (1, 2), (3, 4)])
    slot = FRAME_STRIDE if framed else 4096
    old, new = a[slot : 2 * slot], b[slot : 2 * slot]
    assert old != new
    for p in range(len(new) + 1):
        dev, raw = _device(framed)
        raw.backing.write(0, a)
        raw.backing.write(slot, new[:p])
        want = (3, (3, 4)) if new[:p] + old[p:] == new else (2, (1, 2))
        assert _load(dev) == want, p
        if framed:
            # The torn slot was zeroed: a scrub finds nothing to report.
            assert list(dev.scrub_frames()) == []


@pytest.mark.parametrize("framed", [False, True])
def test_a_damaged_slot_falls_back_to_the_other(framed):
    slot = FRAME_STRIDE if framed else 4096
    image = _image_after(framed, [(1, 2), (3, 4)])  # seq 1 in slot 1, seq 2 in slot 0
    for flips, want in [((0,), (1, (1, 2))), ((slot,), (2, (3, 4))), ((0, slot), None)]:
        dev, raw = _device(framed)
        raw.backing.write(0, image)
        for base in flips:
            raw.backing.write(base + 20, bytes([image[base + 20] ^ 0x10]))
        assert _load(dev) == want


@pytest.mark.parametrize("framed", [False, True])
def test_an_empty_device_has_no_commit(framed):
    dev, raw = _device(framed)
    assert _load(dev) is None
    assert raw.stats.reads == 0


@pytest.mark.parametrize("framed", [False, True])
def test_commits_alternate_slots_and_advance_seq(framed):
    dev, _ = _device(framed)
    root = CommitRoot(dev, MAGIC, FIELDS)
    for seq in range(1, 6):
        root.commit(seq, 10 * seq)
        assert root.seq == seq
        again = CommitRoot(dev, MAGIC, FIELDS)
        assert again.load() == (seq, (seq, 10 * seq)) and again.seq == seq
    assert dev.size() == RECORD_START
    assert CommitRoot(dev, MAGIC + 1, FIELDS).load() is None


def _records():
    return [
        (1, 5, 3, b"abc"),
        (2, 5, 0, b""),
        (3, 9, 1, bytes(range(200))),
    ]


def test_read_records_round_trips_and_stops_at_a_prefix():
    frames = [frame_record(*r) for r in _records()]
    buf = b"".join(frames)
    ends = np.cumsum([len(f) for f in frames]).tolist()
    got = list(read_records(buf))
    assert [(r.kind, r.seq, r.nedges, r.payload) for r in got] == _records()
    assert [r.end for r in got] == ends
    for p in range(len(buf) + 1):
        whole = sum(end <= p for end in ends)
        assert [r.end for r in read_records(buf[:p])] == ends[:whole], p


def test_read_records_never_yields_past_a_bad_byte():
    frames = [frame_record(*r) for r in _records()]
    buf = b"".join(frames)
    starts = [0] + np.cumsum([len(f) for f in frames]).tolist()[:-1]
    for i in range(len(buf)):
        bad = bytearray(buf)
        bad[i] ^= 0xFF
        k = max(j for j, s in enumerate(starts) if s <= i)  # the record hit
        assert len(list(read_records(bytes(bad)))) == k, i


def test_the_delta_log_image_is_unchanged():
    """A fixed append / compaction sequence writes the same device bytes as
    the delta log's hand-rolled header and record code did."""
    dev = BlockDevice(MemoryBacking())
    log = DeltaLog(dev)
    rng = np.random.default_rng(5)
    log.append(1, rng.integers(0, 500, size=(40, 2)))
    log.append(2, np.zeros((0, 2), dtype=np.int64))
    target = log.begin_compaction(7)
    with pytest.raises(GraphStorageException, match="compaction intent"):
        log.append(3, rng.integers(0, 500, size=(25, 2)))  # refused: nothing written
    log.finish_compaction(target)
    log.append(4, rng.integers(0, 500, size=(10, 2)))
    log.begin_compaction(None)
    image = dev.backing.read(0, dev.size())
    assert len(image) == 8278
    assert (
        hashlib.sha256(image).hexdigest()
        == "3b08160eed629b9eeaff5d08b6c94b5ef21433c2cb212b73d1b28bc1a720a443"
    )
    again = DeltaLog(dev)
    assert (again.compacted, again.committed, again.intent) == (2, 4, (4, None))
    assert [seq for seq, _ in again.pending] == [4]
