"""The MySQL backend pinned: device images, virtual clock, disk counters.

One deployment per cache setting — the private LRU and a 4-block 2q shared
pool, small enough that index pages evict — ingests three windows in which
two hubs spill past ``CHUNK_ENTRIES`` into several chunks and ordinary
vertices (two with ids above 2^31) receive appends in later windows.  Then
every read plan runs once.  After each phase the node clock, each device's
counters and the store's counters must equal the recorded values; the
answers must equal a dict-of-lists reference in insertion order.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graphdb.bdb_db import CHUNK_ENTRIES
from repro.simcluster import NodeSpec, SimNode

from .helpers import make_store

HUBS = (3, (1 << 33) + 1)
ORDINARY = np.array(list(range(600)) + [(1 << 31) + 7, (1 << 63) - 1], dtype=np.int64)
ABSENT = 1000
DEVICES = ("tbl_edges_heap", "tbl_edges_idx_src_chunk")


def _windows():
    """Three windows: hub sizes (1500, 700), (900, 600), (2100, 0)."""
    rng = np.random.default_rng(28)
    for hub_sizes in ((1500, 700), (900, 600), (2100, 0)):
        srcs = np.concatenate((np.repeat(HUBS, hub_sizes), rng.choice(ORDINARY, 1500)))
        dsts = rng.integers(0, 1 << 40, len(srcs))
        edges = np.column_stack((srcs, dsts))
        yield edges[rng.permutation(len(edges))]


def _reference():
    ref: dict[int, list[int]] = {}
    for edges in _windows():
        for src, dst in edges[np.argsort(edges[:, 0], kind="stable")].tolist():
            ref.setdefault(src, []).append(dst)
    return ref


REF = _reference()
assert all(len(REF[h]) > CHUNK_ENTRIES for h in HUBS)

SETTINGS = {
    "lru": dict(cache_policy="lru"),
    "2q-4": dict(cache_policy="2q", cache_blocks=4),
}

#: sha256 over both device images after ingest + flush.
GOLDEN_SHA256 = {
    "2q-4": "86cf1deb474727f6a85641819cf20e67b4b8ac3fb46b8bd447beb3011062601c",
    "lru": "86cf1deb474727f6a85641819cf20e67b4b8ac3fb46b8bd447beb3011062601c",
}

#: Per phase: ``repr(clock.now)``, then (reads, writes, bytes read, bytes
#: written, seeks) of the heap and the index device, then ``db.stats``.
GOLDEN_PHASES = {
    "2q-4": {
        "ingest": (
            "74.79886434889329",
            (5903, 2745, 96714752, 44974080, 8637),
            (214, 350, 876544, 1433600, 473),
            (10300, 0, 0, 3),
        ),
        "get_adjacency": (
            "80.19672472887589",
            (6510, 2745, 106659840, 44974080, 9240),
            (264, 350, 1081344, 1433600, 523),
            (10300, 10300, 603, 3),
        ),
        "expand_batched": (
            "80.28884042887566",
            (6521, 2745, 106840064, 44974080, 9250),
            (265, 350, 1085440, 1433600, 524),
            (10300, 16152, 611, 3),
        ),
        "expand_per_vertex": (
            "80.3811935088754",
            (6533, 2745, 107036672, 44974080, 9261),
            (265, 350, 1085440, 1433600, 524),
            (10300, 22004, 619, 3),
        ),
        "scan_all": (
            "80.39246358887232",
            (6545, 2745, 107233280, 44974080, 9262),
            (265, 350, 1085440, 1433600, 524),
            (10300, 22004, 619, 3),
        ),
        "scan_subset": (
            "80.40373366886924",
            (6557, 2745, 107429888, 44974080, 9263),
            (265, 350, 1085440, 1433600, 524),
            (10300, 22004, 619, 3),
        ),
        "local_vertices": (
            "80.41500374886616",
            (6569, 2745, 107626496, 44974080, 9264),
            (265, 350, 1085440, 1433600, 524),
            (10300, 22004, 619, 3),
        ),
    },
    "lru": {
        "ingest": (
            "71.41890317556707",
            (5903, 2745, 96714752, 44974080, 8637),
            (0, 104, 0, 425984, 53),
            (10300, 0, 0, 3),
        ),
        "get_adjacency": (
            "76.41471555554955",
            (6510, 2745, 106659840, 44974080, 9240),
            (0, 104, 0, 425984, 53),
            (10300, 10300, 603, 3),
        ),
        "expand_batched": (
            "76.49879029554931",
            (6521, 2745, 106840064, 44974080, 9250),
            (0, 104, 0, 425984, 53),
            (10300, 16152, 611, 3),
        ),
        "expand_per_vertex": (
            "76.59114337554905",
            (6533, 2745, 107036672, 44974080, 9261),
            (0, 104, 0, 425984, 53),
            (10300, 22004, 619, 3),
        ),
        "scan_all": (
            "76.60241345554597",
            (6545, 2745, 107233280, 44974080, 9262),
            (0, 104, 0, 425984, 53),
            (10300, 22004, 619, 3),
        ),
        "scan_subset": (
            "76.61368353554289",
            (6557, 2745, 107429888, 44974080, 9263),
            (0, 104, 0, 425984, 53),
            (10300, 22004, 619, 3),
        ),
        "local_vertices": (
            "76.62495361553981",
            (6569, 2745, 107626496, 44974080, 9264),
            (0, 104, 0, 425984, 53),
            (10300, 22004, 619, 3),
        ),
    },
}


def _digest(node) -> str:
    h = hashlib.sha256()
    for name in DEVICES:
        backing = node.disk(name).backing
        data = backing.read(0, backing.size())
        h.update(name.encode() + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def _record(node, db):
    disks = tuple(
        (s.reads, s.writes, s.bytes_read, s.bytes_written, s.seeks)
        for s in (node.disk(name).stats for name in DEVICES)
    )
    return (repr(node.clock.now), *disks, dataclasses.astuple(db.stats))


def _expand(db, fringe, batch_io):
    db.batch_io = batch_io
    return db.expand_fringe(np.asarray(fringe, dtype=np.int64)).tolist()


def _scan(db, vertices=None):
    got: dict[int, list[int]] = {}
    for batch in db.scan_adjacency(vertices):
        for v, neighbors in batch:
            got.setdefault(int(v), []).extend(np.asarray(neighbors).tolist())
    return got


def _run(setting):
    node = SimNode(0, NodeSpec())
    db = make_store("MySQL", node, **SETTINGS[setting])
    phases = {}
    for edges in _windows():
        db.store_edges(edges)
    db.flush()
    image = _digest(node)
    phases["ingest"] = _record(node, db)

    for v in sorted(REF) + [ABSENT]:
        assert db.get_adjacency(v).tolist() == REF.get(v, [])
    phases["get_adjacency"] = _record(node, db)

    fringe = [5, HUBS[0], 5, ABSENT, int(ORDINARY[-1]), 0, HUBS[1], 17]
    want = [x for v in fringe for x in REF.get(v, [])]
    assert _expand(db, fringe, batch_io=True) == want
    phases["expand_batched"] = _record(node, db)
    assert _expand(db, fringe, batch_io=False) == want
    phases["expand_per_vertex"] = _record(node, db)

    assert _scan(db) == REF
    phases["scan_all"] = _record(node, db)
    subset = [2, HUBS[0], 11, ABSENT, int(ORDINARY[-2])]
    assert _scan(db, subset) == {v: REF[v] for v in subset if v in REF}
    phases["scan_subset"] = _record(node, db)

    assert db.local_vertices().tolist() == sorted(REF)
    phases["local_vertices"] = _record(node, db)
    return image, phases


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_mysql_golden(setting):
    image, phases = _run(setting)
    assert image == GOLDEN_SHA256[setting]
    assert phases == GOLDEN_PHASES[setting]
