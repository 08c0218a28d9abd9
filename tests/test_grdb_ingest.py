"""grDB's window append against one append per vertex.

Compressed grDB appends a whole ingest window as arrays (block-granular
read, one merge, segmented encode, one write per block).  What it replaced
— merge one vertex's tail with its batch, re-frame, grow the chain — lives
on here as ``Reference``, built only from the public single-frame
primitives, and is the oracle: same device image, same allocator state,
same answers, for any stream of windows.
"""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.util.varint as varint
from repro import MSSG, MSSGConfig
from repro.experiments.harness import scaled_grdb_format
from repro.graphdb import GrDB, GrDBFormat, IdentityMap, ModuloMap
from repro.graphdb.grdb import (
    EMPTY_SLOT,
    MAX_VERTEX_ID,
    chain_length,
    decode_pointer,
    defragment,
    encode_pointer,
    is_pointer,
)
from repro.graphdb.grdb.format import COMPRESSED_COUNT_CAP
from repro.graphdb.grdb.storage import GrDBStorage
from repro.graphgen import pubmed_like
from repro.simcluster import DiskFault, FaultPlan, NodeSpec, SimNode
from repro.util.varint import split_sorted_fit

#: Payload budgets 6 / 22 / 118 / 502 bytes: a 7-byte first varint does not
#: fit a head (empty fit), and ~60 wide gaps overflow the top level.
FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
    compress=True,
)


class Reference:
    """One compressed append per vertex, frame by frame (the oracle)."""

    def __init__(self, fmt=FMT, policy="link", id_map=None):
        self.fmt, self.policy = fmt, policy
        self.id_map = id_map if id_map is not None else IdentityMap()
        self.node = SimNode(0, NodeSpec())
        self.storage = GrDBStorage(fmt, self.node.disk)

    def reopen(self):
        self.storage = GrDBStorage(self.fmt, self.node.disk)
        assert self.storage.restore()

    def _frame(self, level, sb):
        values, tail, _ = self.fmt.decode_subblock(self.storage.read_subblock(level, sb))
        return values, tail

    def store_edges(self, edges):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edges = edges[np.argsort(edges[:, 0], kind="stable")]
        for gid in np.unique(edges[:, 0]).tolist():
            self.append(self.id_map.to_local(gid), edges[edges[:, 0] == gid, 1])

    def append(self, local, new):
        fmt, st_ = self.fmt, self.storage
        path = [(0, local)]
        while is_pointer((frame := self._frame(*path[-1]))[1]):
            path.append(decode_pointer(frame[1]))
        level, sb = path[-1]
        pending = np.sort(np.concatenate([frame[0], new.astype("<u8")]), kind="stable")
        top = fmt.num_levels - 1
        while True:
            fit, spill = split_sorted_fit(pending, fmt.payload_bytes(level), COMPRESSED_COUNT_CAP)
            if len(spill) == 0:
                st_.write_subblock(level, sb, fmt.encode_subblock(level, fit, EMPTY_SLOT))
                return
            tgt = min(level + 1, top)
            nsb = st_.allocate_subblock(tgt)
            if self.policy == "move" and 1 <= level < top:
                st_.free_subblock(level, sb)
                parent = path[-2]
                st_.write_subblock(
                    *parent,
                    fmt.encode_subblock(
                        parent[0], self._frame(*parent)[0], encode_pointer(tgt, nsb)
                    ),
                )
                path[-1] = (tgt, nsb)
            else:
                st_.write_subblock(
                    level, sb, fmt.encode_subblock(level, fit, encode_pointer(tgt, nsb))
                )
                path.append((tgt, nsb))
                pending = spill
            level, sb = tgt, nsb

    def get_adjacency(self, gid):
        parts, at = [], (0, self.id_map.to_local(gid))
        while True:
            values, tail = self._frame(*at)
            parts.append(values)
            if not is_pointer(tail):
                return np.concatenate(parts).astype(np.int64)
            at = decode_pointer(tail)


def make_db(fmt=FMT, policy="link", id_map=None, node=None, **kw):
    node = node if node is not None else SimNode(0, NodeSpec())
    db = GrDB(
        node.disk, fmt=fmt, clock=node.clock, cpu=node.spec.cpu,
        growth_policy=policy, id_map=id_map, **kw,
    )
    return db, node


def image(node) -> dict[str, bytes]:
    """Every device of ``node`` by name (level files and the superblock)."""
    return {
        name: dev.backing.read(0, dev.backing.size())
        for name, dev in sorted(node._disks.items())
        if dev.backing.size()
    }


def digest(node) -> str:
    h = hashlib.sha256()
    for name, data in image(node).items():
        h.update(name.encode() + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def assert_same_store(db, node, ref):
    db.flush()
    ref.storage.flush()
    assert image(node) == image(ref.node)
    assert db.storage._next_subblock == ref.storage._next_subblock
    assert db.storage._free == ref.storage._free


# -- (a) any stream of windows: same image, allocator and answers -------------

_dst = st.one_of(
    st.integers(0, 12),  # collisions: duplicate edges, one extra hop each
    st.integers(0, 1 << 20),
    st.integers(1 << 42, MAX_VERTEX_ID),  # 7..9-byte varints: empty head fits
)
_window = st.tuples(
    st.lists(st.tuples(st.integers(0, 9), _dst), max_size=40),
    # A hub burst: (source, neighbours, seed) of wide random ids, enough of
    # them to chain top-level sub-blocks.
    st.one_of(st.none(), st.tuples(st.integers(0, 9), st.integers(1, 160), st.integers(0, 99))),
)


def _edges(window, nparts, rank):
    pairs, hub = window
    edges = [(src * nparts + rank, dst) for src, dst in pairs]
    if hub is not None:
        src, count, seed = hub
        dsts = np.random.default_rng(seed).integers(0, MAX_VERTEX_ID, count, endpoint=True)
        edges += [(src * nparts + rank, int(d)) for d in dsts]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


@settings(max_examples=60, deadline=None)
@given(
    windows=st.lists(_window, min_size=1, max_size=5),
    policy=st.sampled_from(["link", "move"]),
    modulo=st.booleans(),
    cache_blocks=st.sampled_from([0, 3, 256]),
)
def test_window_append_equals_one_append_per_vertex(windows, policy, modulo, cache_blocks):
    nparts, rank = (3, 1) if modulo else (1, 0)
    id_map = (lambda: ModuloMap(nparts, rank)) if modulo else IdentityMap
    db, node = make_db(policy=policy, id_map=id_map(), cache_blocks=cache_blocks)
    ref = Reference(policy=policy, id_map=id_map())
    model: dict[int, list[int]] = {}
    for window in windows:
        edges = _edges(window, nparts, rank)
        db.store_edges(edges)
        ref.store_edges(edges)
        for src, dst in edges.tolist():
            model.setdefault(src, []).append(dst)
    assert_same_store(db, node, ref)
    assert db.local_vertices().tolist() == sorted(model)
    for gid, want in model.items():
        got = db.get_adjacency(gid)
        assert got.tolist() == ref.get_adjacency(gid).tolist()
        assert sorted(got.tolist()) == sorted(want)


# -- (b) golden device images, recorded on the commit before the window append --


def _golden_stream(seed, nparts=1, rank=0, hub=0, repeats=0):
    """Five windows over 60 sources with a scale-free-ish degree mix."""
    rng = np.random.default_rng(seed)
    for _ in range(5):
        srcs = rng.zipf(1.6, 300) % 60
        dsts = rng.integers(0, 1 << rng.integers(4, 50), 300)
        edges = np.column_stack((srcs, dsts))
        if hub:
            wide = rng.integers(0, MAX_VERTEX_ID, hub, endpoint=True)
            edges = np.vstack((edges, np.column_stack((np.full(hub, 7), wide))))
        if repeats:
            edges = np.vstack((edges, edges[rng.integers(0, len(edges), repeats)]))
        edges[:, 0] = edges[:, 0] * nparts + rank
        yield edges.astype(np.int64)


GOLDEN = {
    "link": (dict(seed=21), "link", None),
    "move": (dict(seed=22), "move", None),
    "modulo": (dict(seed=23, nparts=4, rank=3, hub=90, repeats=40), "link", (4, 3)),
}
GOLDEN_SHA256 = {
    "link": "1266a06e55ae9f55e5d1292e366d8f009d142bb12942486f87e8df9f11f66d7e",
    "move": "0b54091f58ef621fa61e9e9c7cacd763d83962c5a4fff0798adc11f3ddf29141",
    "modulo": "d87fab755602c44b9533285f7da64bacb06fc11e40131b59a95f2544475fb1a7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_device_image(name):
    stream, policy, modulo = GOLDEN[name]
    db, node = make_db(policy=policy, id_map=ModuloMap(*modulo) if modulo else None)
    for edges in _golden_stream(**stream):
        db.store_edges(edges)
    db.flush()
    # hubs chain top-level sub-blocks, in all three streams
    assert max(chain_length(db, v) for v in db.local_vertices().tolist()) > FMT.num_levels
    assert digest(node) == GOLDEN_SHA256[name]


# -- (c) the codec is entered per (round, level), not per vertex ----------------


def _count_codec_entries(monkeypatch):
    """Count calls from outside ``repro.util.varint`` into its public functions."""
    calls = dict.fromkeys(varint.__all__[1:], 0)
    for name in calls:
        original = getattr(varint, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and module is not varint:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("policy", ["link", "move"])
def test_codec_entries_do_not_grow_with_the_window(monkeypatch, policy):
    def window(nvertices, salt):
        # Every vertex gets the same 9 gaps, so every chain grows alike.
        srcs = np.repeat(np.arange(nvertices), 9)
        dsts = np.tile(np.arange(9) * 1000 + salt, nvertices) + srcs
        return np.column_stack((srcs, dsts))

    entries = {}
    for nvertices in (400, 1600):
        db, _ = make_db(policy=policy)
        db.store_edges(window(nvertices, 0))
        calls = _count_codec_entries(monkeypatch)
        db.store_edges(window(nvertices, 500))
        monkeypatch.undo()
        # the counted window grew every chain (move keeps chains at two hops)
        hops = 3 if policy == "link" else 2
        assert chain_length(db, 0) == chain_length(db, nvertices - 1) == hops
        assert calls["encode_sorted"] == calls["decode_sorted"] == 0
        assert calls["split_sorted_fit"] == 0
        entries[nvertices] = sum(calls.values())
    assert entries[400] == entries[1600]
    # a fit per round, a decode and an encode per level (plus the parents' decode)
    assert 0 < entries[400] <= 4 * FMT.num_levels


# -- (d) restored stores, refilled free lists, frame limits, a device kill ------


@pytest.mark.parametrize("policy", ["link", "move"])
def test_append_to_restored_and_defragmented_store(policy):
    windows = list(_golden_stream(31, hub=70, repeats=25))
    db, node = make_db(policy=policy, cache_blocks=5)
    ref = Reference(policy=policy)
    for edges in windows[:2]:
        db.store_edges(edges)
        ref.store_edges(edges)
    assert_same_store(db, node, ref)

    # Reopen: no tail is memoised, every chain is walked once.
    db, _ = make_db(policy=policy, cache_blocks=5, node=node)
    assert db.restored
    ref.reopen()
    db.store_edges(windows[2])
    ref.store_edges(windows[2])
    assert_same_store(db, node, ref)

    # Defragment both images (the reference's through a second instance),
    # which refills the free lists the next window allocates from.
    assert defragment(db) > 0
    other, _ = make_db(policy=policy, node=ref.node)
    defragment(other)
    other.flush()
    ref.reopen()
    assert any(db.storage._free)
    assert_same_store(db, node, ref)
    for edges in windows[3:]:
        db.store_edges(edges)
        ref.store_edges(edges)
    assert_same_store(db, node, ref)
    for gid in db.local_vertices().tolist():
        assert db.get_adjacency(gid).tolist() == ref.get_adjacency(gid).tolist()


def test_count_cap_and_empty_fit_frames():
    fmt = GrDBFormat(compress=True)  # top-level payload holds > 0xFFFE one-byte gaps
    db, node = make_db(fmt=fmt)
    ref = Reference(fmt=fmt)
    edges = np.vstack(
        (
            np.column_stack((np.full(110_000, 2), np.arange(110_000) + 5)),
            [(3, MAX_VERTEX_ID), (3, MAX_VERTEX_ID - 1)],  # 9-byte varints: pointer-only head
        )
    )
    db.store_edges(edges)
    ref.store_edges(edges)
    assert_same_store(db, node, ref)
    counts = []
    for level, sb in db.chain_of(2):
        values, _, _ = fmt.decode_subblock(db.storage.read_subblock(level, sb))
        counts.append(len(values))
    assert COMPRESSED_COUNT_CAP in counts and sum(counts) == 110_000
    head, _, _ = fmt.decode_subblock(db.storage.read_subblock(0, 3))
    assert len(head) == 0 and db.get_adjacency(3).tolist() == [MAX_VERTEX_ID - 1, MAX_VERTEX_ID]


def test_unreadable_tail_fails_before_the_first_write():
    db, node = make_db(cache_blocks=0)
    db.store_edges(np.column_stack((np.arange(40), np.arange(40) + 100)))
    db.flush()
    before = image(node)
    # Vertex 39's head: make its delta stream end mid-varint.
    dev = node.disk("grdb_L0_F0")
    dev.backing.write(39 * 16 + 2, b"\xff" * 6)
    from repro.util import GraphStorageException

    with pytest.raises(GraphStorageException, match="level-0 sub-block 39"):
        db.store_edges(np.column_stack((np.arange(40), np.arange(40) + 200)))
    dev.backing.write(39 * 16, before["grdb_L0_F0"][39 * 16 : 40 * 16])
    assert image(node) == before


def test_device_kill_mid_window_degrades_the_ingest():
    edges = pubmed_like(600, seed=7)
    # No cache: every block a window writes goes straight to the device, so
    # a fault counted in device operations lands inside a write phase.
    cfg = dict(
        num_backends=3, num_frontends=1, cache_blocks=0, grdb_format=scaled_grdb_format()
    )
    with MSSG(MSSGConfig(**cfg)) as mssg:
        healthy = mssg.ingest(edges)
        assert not healthy.degraded and healthy.windows == 2
    plan = FaultPlan([DiskFault(node=1, device="grdb_L0_F0", after_ops=5)])
    with MSSG(MSSGConfig(**cfg, fault_plan=plan)) as mssg:
        report = mssg.ingest(edges)
        assert report.degraded and report.failed_backends == (0,)
        # it died inside the first window: that back-end stored nothing, the
        # others everything
        assert report.lost_entries == healthy.per_backend_entries[0]
        assert report.per_backend_entries[1:] == healthy.per_backend_entries[1:]
