"""grDB's decoded-block memo: wall clock only, every read and charge kept.

``GrDB._read_run`` keeps, per ``(level, block)``, the decoded rows of the
last bytes it decoded for a compressed block.  Every read still goes through
the cache and the devices (CRC frames included); only bytes equal to the
memo's skip the decode.  The rows run on a compressed store with checksums
on and off, against a twin whose memo is emptied before every read step, or
against the read step the memo replaced (kept here as the reference).
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.graphdb.grdb.format import GrDBFormat
from repro.graphdb.interface import AdjacencyBatch
from repro.simcluster import NodeSpec, SimNode
from repro.simcluster.faults import DiskFault, FaultPlan
from repro.util.errors import CorruptBlockError, GraphStorageException

from .helpers import make_store

FMT = GrDBFormat(
    capacities=(2, 4, 8, 16), block_sizes=(64, 128, 256, 512), max_file_bytes=1024, compress=True
)
N = 60  # sources 0 .. N - 1
HUB = 3
FRINGE = [HUB, 5, 8, 13, 5, 40, 59]
CHECKSUMS = pytest.mark.parametrize("checksums", [True, False], ids=["crc", "plain"])


def windows():
    """Three windows: the hub gains 80 entries each, 200 land anywhere, and
    vertex 40 gains 5 past 2**32 (its blocks memoise uint64 values, the
    others uint32)."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        srcs = np.concatenate((np.repeat(HUB, 80), rng.integers(0, N, 200), np.repeat(40, 5)))
        dsts = rng.integers(0, 5000, len(srcs))
        dsts[-5:] += 2**40
        yield np.column_stack((srcs, dsts))


def build(checksums, cache_blocks=4, extra=()):
    node = SimNode(0, NodeSpec())
    db = make_store(
        "grDB", node, grdb_format=FMT, checksums=checksums, cache_blocks=cache_blocks
    )
    for edges in [*windows(), *extra]:
        db.store_edges(edges)
    db.flush()
    return node, db


def memoless(db):
    """``db`` with its memo emptied before every read step."""
    read_run = db._read_run

    def emptied(level, subs):
        for memo in db._decoded:
            memo.clear()
        return read_run(level, subs)

    db._read_run = emptied
    return db


def reference_read_run(db, level, subs):
    """The read step before the memo: decode the requested rows, every call."""
    frames, nblocks = db._read_frames(level, subs)
    db.clock.advance(nblocks * db.cpu.grdb_subblock_seconds)
    return db.fmt.decode_subblocks(level, subs, frames)


@pytest.fixture
def decodes(monkeypatch):
    """Every ``decode_subblocks`` call, as ``(level, sub-blocks)``."""
    calls = []
    decode = GrDBFormat.decode_subblocks

    def counted(self, level, subblocks, frames):
        calls.append((level, np.asarray(subblocks).tolist()))
        return decode(self, level, subblocks, frames)

    monkeypatch.setattr(GrDBFormat, "decode_subblocks", counted)
    return calls


def scan(db, vertices=None):
    batch = AdjacencyBatch.concat(list(db.scan_adjacency(vertices))).grouped()
    return batch.vertices.tolist(), batch.offsets.tolist(), batch.neighbors.tolist()


def expand(db, fringe=FRINGE):
    return db.expand_fringe(np.asarray(fringe, dtype=np.int64)).tolist()


def charges(node, db) -> tuple:
    """The virtual clock, every device's ``DiskStats``, the cache's counters
    and the store's counters."""
    disks = [(name, dataclasses.astuple(dev.stats)) for name, dev in sorted(node._disks.items())]
    cache = db.cache_stats
    return node.clock.now, disks, (cache.hits, cache.misses, cache.evictions), db.stats


def damage_payload(db, level, sb):
    """Give every payload byte of sub-block ``sb`` a continuation bit, so its
    varint stream no longer terminates (an unchecksummed store: the write
    lands below the format, as bit rot would)."""
    k, nbytes = FMT.subblocks_per_block(level), FMT.subblock_bytes(level)
    dev, offset = db.storage._block_location(level, sb // k)
    dev.write(offset + sb % k * nbytes + 2, b"\x80" * FMT.payload_bytes(level))


@CHECKSUMS
def test_repeated_sweeps_and_fringes_decode_nothing_and_charge_alike(checksums, decodes):
    (node, db), (twin_node, twin) = build(checksums), build(checksums)
    memoless(twin)
    counts = []
    for step in (scan, scan, expand, expand):
        before = len(decodes)
        got = step(db)
        counts.append(len(decodes) - before)
        assert step(twin) == got
        assert charges(node, db) == charges(twin_node, twin)
    assert counts[0] > 0 and counts[1] == 0 and counts[3] == 0
    assert node.disk("grdb_L0_F0").stats.reads > 0  # the hits still read the device


@CHECKSUMS
def test_a_rewritten_block_is_decoded_again(checksums, decodes):
    node, db = build(checksums)
    scan(db)
    level, sb = db.chain_of(5)[-1]  # the tail the append rewrites
    block = sb // FMT.subblocks_per_block(level)
    old = db._decoded[level][block][0]
    extra = np.column_stack((np.repeat(5, 3), [7001, 7002, 7003]))
    db.store_edges(extra)
    before = len(decodes)
    got = scan(db)
    assert any(lv == level and sb in subs for lv, subs in decodes[before:])
    assert db._decoded[level][block][0] != old
    assert got == scan(build(checksums, extra=[extra])[1])
    assert expand(db) == expand(build(checksums, extra=[extra])[1])


def test_a_corrupt_fault_after_a_memo_hit_still_raises(decodes):
    node, db = build(True, cache_blocks=0)  # every read reaches the device
    want = expand(db)
    before = len(decodes)
    assert expand(db) == want and len(decodes) == before  # served by the memo
    dev = node.disk("grdb_L0_F0")
    node.install_fault_plan(
        FaultPlan([DiskFault(node=0, device="grdb_L0_F0", kind="corrupt", after_ops=dev.ops)])
    )
    with pytest.raises(CorruptBlockError):
        expand(db)


def test_an_overwritten_payload_after_a_memo_hit_raises_as_before(decodes):
    (_, db), (_, ref) = build(False, cache_blocks=0), build(False, cache_blocks=0)
    ref._read_run = partial(reference_read_run, ref)
    assert expand(db) == expand(db) == expand(ref)
    level, sb = db.chain_of(HUB)[1]
    for store in (db, ref):
        damage_payload(store, level, sb)
    before = len(decodes)
    with pytest.raises(GraphStorageException) as got:
        expand(db)
    assert any(lv == level and sb in subs for lv, subs in decodes[before:])  # decoded again
    with pytest.raises(GraphStorageException) as want:
        expand(ref)
    assert str(got.value) == str(want.value)
    assert f"level-{level} sub-block {sb} " in str(got.value)


@pytest.mark.parametrize("memoised", [True, False], ids=["after-a-hit", "cold"])
def test_damage_in_an_unrequested_sibling_still_answers(memoised):
    (_, db), (_, ref) = build(False, cache_blocks=0), build(False, cache_blocks=0)
    ref._read_run = partial(reference_read_run, ref)
    v, sibling = 8, 9  # level-0 heads in one block
    assert sibling // FMT.subblocks_per_block(0) == v // FMT.subblocks_per_block(0)
    block = v // FMT.subblocks_per_block(0)
    if memoised:
        want = expand(db, [v])
        assert block in db._decoded[0]
    for store in (db, ref):
        damage_payload(store, 0, sibling)
    got = expand(db, [v])
    assert got == expand(ref, [v]) and len(got) > 0
    if memoised:
        assert got == want
    assert block not in db._decoded[0]  # nothing of the damaged block is memoised
    with pytest.raises(GraphStorageException) as raised:
        expand(db, [sibling])
    with pytest.raises(GraphStorageException) as reference:
        expand(ref, [sibling])
    assert str(raised.value) == str(reference.value)


def test_memoised_arrays_are_compact_and_read_only():
    _, db = build(True)
    scan(db)
    entries = [entry for memo in db._decoded for entry in memo.values()]
    assert entries
    for _, values, consumed in entries:
        assert values.base is None and consumed.base is None
        for array in (values, consumed):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1


def test_close_empties_the_memo():
    _, db = build(True)
    scan(db)
    assert any(db._decoded)
    db.close()
    assert not any(db._decoded)


@CHECKSUMS
def test_the_memo_holds_at_most_one_entry_per_stored_block(checksums):
    _, db = build(checksums)
    rng = np.random.default_rng(11)
    for _ in range(4):
        scan(db)
        expand(db, [*FRINGE, 10**6])  # an owned id no block holds
        db.store_edges(np.column_stack((rng.integers(0, N, 50), rng.integers(0, 5000, 50))))
        keys = [(level, block) for level, memo in enumerate(db._decoded) for block in memo]
        assert set(keys) <= db.storage._written_blocks
