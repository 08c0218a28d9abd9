"""The BerkeleyDB backend pinned: device image, virtual clock, disk and cache counters.

One deployment per cache setting — the private LRU and a 4-block 2q shared
pool, small enough that B-tree pages evict — ingests three windows in which
two hubs spill past ``CHUNK_ENTRIES`` into several chunks and ordinary
vertices (two with ids above 2^31, one at 2^63 - 1) receive appends in later
windows.  Then every read plan runs once: point lookups, a fringe below and
one at ``BATCH_SCAN_MIN`` (sorted prefix lookups, then one leaf-chain range
cursor), the per-vertex loop with ``batch_io`` off, storage-order scans over
all and over a subset, and the vertex enumeration.  After each phase the
node clock, the device's counters, the page cache's counters and the store's
counters must equal the recorded values; the answers must equal a
dict-of-lists reference in insertion order.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graphdb.chunked import CHUNK_ENTRIES
from repro.simcluster import NodeSpec, SimNode

from .helpers import make_store

HUBS = (3, (1 << 33) + 1)
ORDINARY = np.array(list(range(600)) + [(1 << 31) + 7, (1 << 63) - 1], dtype=np.int64)
ABSENT = 1000
DEVICE = "bdb"


def _windows():
    """Three windows: hub sizes (1500, 700), (900, 600), (2100, 0)."""
    rng = np.random.default_rng(30)
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

#: A fringe of 6 distinct non-negative ids (sorted prefix lookups) and one
#: of 40 (the range cursor); both repeat ids and name absent and negative ones.
SMALL_FRINGE = [5, HUBS[0], 5, ABSENT, int(ORDINARY[-1]), -4, 0, HUBS[1], 17]
LARGE_FRINGE = (
    [HUBS[1], 599, -4] + list(range(0, 570, 16)) + [ABSENT, 64, HUBS[0], int(ORDINARY[-2]), 64]
)

#: sha256 over the device image after ingest + flush.
GOLDEN_SHA256 = {
    "2q-4": "c45caa3501fa0b4613a6bc26dc25de4e29220b97ca5922f8b2f5cc9a36392834",
    "lru": "c45caa3501fa0b4613a6bc26dc25de4e29220b97ca5922f8b2f5cc9a36392834",
}

#: Per phase: ``repr(clock.now)``, the device's (reads, writes, bytes read,
#: bytes written, seeks), the page cache's (hits, misses, evictions,
#: writebacks), then ``db.stats``.
#: ``local_vertices`` reads the RAM census, so its row repeats the one before.
GOLDEN_PHASES = {
    "2q-4": {
        "ingest": (
            "17.073878144445946",
            (570, 1885, 2334720, 7720960, 2110),
            (10743, 570, 1660, 1524),
            (10300, 0, 0, 3),
        ),
        "get_adjacency": (
            "28.229859384440886",
            (2014, 1885, 8249344, 7720960, 3494),
            (12290, 2014, 3104, 1524),
            (10300, 10300, 605, 3),
        ),
        "expand_batched_small": (
            "28.433079654440817",
            (2051, 1885, 8400896, 7720960, 3519),
            (12303, 2051, 3141, 1524),
            (10300, 16129, 614, 3),
        ),
        "expand_per_vertex_small": (
            "28.66845280444074",
            (2091, 1885, 8564736, 7720960, 3548),
            (12317, 2091, 3181, 1524),
            (10300, 21958, 623, 3),
        ),
        "expand_batched_large": (
            "30.94008108444009",
            (2384, 1885, 9764864, 7720960, 3830),
            (12321, 2384, 3474, 1524),
            (10300, 28066, 667, 3),
        ),
        "expand_per_vertex_large": (
            "32.278574924439916",
            (2563, 1885, 10498048, 7720960, 3996),
            (12380, 2563, 3653, 1524),
            (10300, 34174, 711, 3),
        ),
        "scan_all": (
            "34.55667620444127",
            (2856, 1885, 11698176, 7720960, 4279),
            (12384, 2856, 3946, 1524),
            (10300, 34174, 711, 3),
        ),
        "scan_subset": (
            "36.83477748444262",
            (3149, 1885, 12898304, 7720960, 4562),
            (12388, 3149, 4239, 1524),
            (10300, 34174, 711, 3),
        ),
        "local_vertices": (
            "36.83477748444262",
            (3149, 1885, 12898304, 7720960, 4562),
            (12388, 3149, 4239, 1524),
            (10300, 34174, 711, 3),
        ),
    },
    "lru": {
        "ingest": (
            "5.60708603777796",
            (116, 826, 475136, 3383296, 685),
            (11197, 116, 221, 465),
            (10300, 0, 0, 3),
        ),
        "get_adjacency": (
            "8.414584717777428",
            (474, 826, 1941504, 3383296, 1031),
            (13830, 474, 579, 465),
            (10300, 10300, 605, 3),
        ),
        "expand_batched_small": (
            "8.440862907777447",
            (488, 826, 1998848, 3383296, 1034),
            (13866, 488, 593, 465),
            (10300, 16129, 614, 3),
        ),
        "expand_per_vertex_small": (
            "8.442597657777469",
            (488, 826, 1998848, 3383296, 1034),
            (13920, 488, 593, 465),
            (10300, 21958, 623, 3),
        ),
        "expand_batched_large": (
            "10.69769345777782",
            (768, 826, 3145728, 3383296, 1314),
            (13937, 768, 873, 465),
            (10300, 28066, 667, 3),
        ),
        "expand_per_vertex_large": (
            "10.854043297777961",
            (797, 826, 3264512, 3383296, 1333),
            (14146, 797, 902, 465),
            (10300, 34174, 711, 3),
        ),
        "scan_all": (
            "12.745768897778284",
            (1032, 826, 4227072, 3383296, 1568),
            (14208, 1032, 1137, 465),
            (10300, 34174, 711, 3),
        ),
        "scan_subset": (
            "15.039993057778636",
            (1328, 826, 5439488, 3383296, 1853),
            (14209, 1328, 1433, 465),
            (10300, 34174, 711, 3),
        ),
        "local_vertices": (
            "15.039993057778636",
            (1328, 826, 5439488, 3383296, 1853),
            (14209, 1328, 1433, 465),
            (10300, 34174, 711, 3),
        ),
    },
}


def _digest(node) -> str:
    backing = node.disk(DEVICE).backing
    data = backing.read(0, backing.size())
    return hashlib.sha256(len(data).to_bytes(8, "big") + data).hexdigest()


def _record(node, db):
    s = node.disk(DEVICE).stats
    return (
        repr(node.clock.now),
        (s.reads, s.writes, s.bytes_read, s.bytes_written, s.seeks),
        dataclasses.astuple(db.cache_stats),
        dataclasses.astuple(db.stats),
    )


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
    db = make_store("BerkeleyDB", node, **SETTINGS[setting])
    assert len({v for v in SMALL_FRINGE if v >= 0}) < db.BATCH_SCAN_MIN
    assert len({v for v in LARGE_FRINGE if v >= 0}) >= db.BATCH_SCAN_MIN
    phases = {}
    for edges in _windows():
        db.store_edges(edges)
    db.flush()
    image = _digest(node)
    phases["ingest"] = _record(node, db)

    for v in sorted(REF) + [ABSENT, -4]:
        assert db.get_adjacency(v).tolist() == REF.get(v, [])
    phases["get_adjacency"] = _record(node, db)

    for name, fringe in (("small", SMALL_FRINGE), ("large", LARGE_FRINGE)):
        want = [x for v in fringe for x in REF.get(v, [])]
        assert _expand(db, fringe, batch_io=True) == want
        phases[f"expand_batched_{name}"] = _record(node, db)
        assert _expand(db, fringe, batch_io=False) == want
        phases[f"expand_per_vertex_{name}"] = _record(node, db)

    assert _scan(db) == REF
    phases["scan_all"] = _record(node, db)
    subset = [2, HUBS[0], 11, ABSENT, int(ORDINARY[-2]), int(ORDINARY[-1])]
    assert _scan(db, subset) == {v: REF[v] for v in subset if v in REF}
    phases["scan_subset"] = _record(node, db)

    assert db.local_vertices().tolist() == sorted(REF)
    phases["local_vertices"] = _record(node, db)
    return image, phases


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_bdb_golden(setting):
    image, phases = _run(setting)
    assert image == GOLDEN_SHA256[setting]
    assert phases == GOLDEN_PHASES[setting]
