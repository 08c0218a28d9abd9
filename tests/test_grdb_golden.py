"""grDB's read plans pinned: virtual clock, device and cache counters, answers.

Eight deployments — raw and compressed sub-blocks, ``link`` and ``move``
growth, a 4-block private LRU and an 8-block 2q shared pool — of a small
four-level geometry behind ``ModuloMap(2, 0)`` (this store owns the even
ids).  Three windows grow a hub far past the top level and two vertices to
chains of three levels and more.  Then every read runs: ``get_adjacency``
on the hub, a deep vertex, an owned but absent id and a negative id; one
fringe (duplicates, non-owned ids, a negative id) expanded per vertex and
batched; and a per-vertex expansion of every stored vertex that a
``DiskFault(kind="fail")`` interrupts partway.  After every call the node
clock, each device's counters, the cache's hits / misses / evictions, the
store's counters and a digest of the answer must equal the recorded values;
the answers must also hold each vertex's reference multiset.

Array and HashMap expand the same fringe before and after
``finalize_ingest``, pinned the same way (they have no device).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graphdb.grdb.format import GrDBFormat
from repro.graphdb.idmap import ModuloMap
from repro.simcluster import NodeSpec, SimNode
from repro.simcluster.faults import DiskFault, FaultPlan
from repro.util import DeviceFailedError

from .helpers import make_store

FMT = GrDBFormat(
    capacities=(2, 4, 8, 16), block_sizes=(64, 128, 256, 512), max_file_bytes=1024
)
NPARTS, RANK = 2, 0
HUB = 6
DEEP = (10, 12)
ABSENT = 150  # owned (even), never a source
NEGATIVE = -4
FRINGE = [HUB, DEEP[0], 7, DEEP[0], NEGATIVE, ABSENT, 20, 22, HUB, DEEP[1], 158, 9]
FAULT_DEVICE = "grdb_L1_F0"
FAULT_AFTER = 3  # the fourth operation of FAULT_DEVICE after install fails


def _windows():
    """Three windows: the hub gains 60, 45 and 80 entries, each deep vertex
    5, 4 and 6, and 120 entries land on random owned sources."""
    rng = np.random.default_rng(29)
    owned = np.arange(0, 160, NPARTS)
    owned = owned[owned != ABSENT]
    for hub_n, deep_n in ((60, 5), (45, 4), (80, 6)):
        srcs = np.concatenate(
            (np.repeat(HUB, hub_n), np.repeat(DEEP, deep_n), rng.choice(owned, 120))
        )
        dsts = rng.integers(0, 400, len(srcs))
        edges = np.column_stack((srcs, dsts))
        yield edges[rng.permutation(len(edges))]


def _reference():
    ref: dict[int, list[int]] = {}
    for edges in _windows():
        for src, dst in edges.tolist():
            ref.setdefault(src, []).append(dst)
    return {v: sorted(lst) for v, lst in ref.items()}


REF = _reference()
assert ABSENT not in REF and len(REF[HUB]) > FMT.total_chain_capacity()

SETTINGS = {
    f"{codec}-{growth}-{cache}": (codec, growth, cache)
    for codec in ("raw", "comp")
    for growth in ("link", "move")
    for cache in ("lru-4", "2q-8")
}
CACHES = {
    "lru-4": dict(cache_policy="lru", cache_blocks=4),
    "2q-8": dict(cache_policy="2q", cache_blocks=8),
}


def _answer(values) -> tuple[int, str]:
    data = np.asarray(values, dtype=np.int64).tobytes()
    return len(data) // 8, hashlib.sha256(data).hexdigest()[:16]


def _record(node, db, answer=None):
    """``(repr(clock.now), summed device counters, digest of every device's
    DiskStats, cache hits / misses / evictions, db.stats, answer)``."""
    disks = [(name, dataclasses.astuple(dev.stats)) for name, dev in sorted(node._disks.items())]
    totals = tuple(int(sum(col)) for col in zip(*(stats[:5] for _, stats in disks))) or None
    cache = getattr(db, "cache_stats", None)
    return (
        repr(node.clock.now),
        totals,
        hashlib.sha256(repr(disks).encode()).hexdigest()[:16] if disks else None,
        None if cache is None else (cache.hits, cache.misses, cache.evictions),
        dataclasses.astuple(db.stats),
        None if answer is None else _answer(answer),
    )


def _expand(db, fringe, batch_io=None):
    if batch_io is not None:
        db.batch_io = batch_io
    return db.expand_fringe(np.asarray(fringe, dtype=np.int64))


def _check_multiset(got, fringe):
    want = sorted(x for v in fringe if v >= 0 and v % NPARTS == RANK for x in REF.get(v, []))
    assert sorted(np.asarray(got).tolist()) == want


def _run_grdb(setting):
    codec, growth, cache = SETTINGS[setting]
    node = SimNode(0, NodeSpec())
    db = make_store(
        "grDB",
        node,
        grdb_format=dataclasses.replace(FMT, compress=codec == "comp"),
        growth_policy=growth,
        id_map=ModuloMap(NPARTS, RANK),
        **CACHES[cache],
    )
    phases = {}
    for edges in _windows():
        db.store_edges(edges[edges[:, 0] % NPARTS == RANK])
    db.flush()
    phases["ingest"] = _record(node, db)
    assert len(db.chain_of(HUB)) > FMT.num_levels
    assert all(len(db.chain_of(v)) >= 3 for v in DEEP)

    for name, v in (("hub", HUB), ("deep", DEEP[0]), ("absent", ABSENT), ("negative", NEGATIVE)):
        got = db.get_adjacency(v)
        assert sorted(got.tolist()) == REF.get(v, [])
        phases[f"get_{name}"] = _record(node, db, got)

    per_vertex = _expand(db, FRINGE, batch_io=False)
    _check_multiset(per_vertex, FRINGE)
    phases["expand_per_vertex"] = _record(node, db, per_vertex)
    batched = _expand(db, FRINGE, batch_io=True)
    assert np.array_equal(batched, per_vertex)
    phases["expand_batched"] = _record(node, db, batched)

    dev = node.disk(FAULT_DEVICE)
    fault = DiskFault(node=0, device=FAULT_DEVICE, kind="fail", after_ops=dev.ops + FAULT_AFTER)
    node.install_fault_plan(FaultPlan([fault]))
    with pytest.raises(DeviceFailedError):
        _expand(db, sorted(REF), batch_io=False)
    phases["expand_fault"] = _record(node, db)
    return phases


def _run_inmemory(backend):
    node = SimNode(0, NodeSpec())
    db = make_store(backend, node)
    phases = {}
    for edges in _windows():
        db.store_edges(edges)
    phases["ingest"] = _record(node, db)
    fringe = FRINGE + [7, 9, 9]
    for phase in ("staged", "finalized"):
        if phase == "finalized":
            db.finalize_ingest()
            phases["finalize"] = _record(node, db)
        got = _expand(db, fringe)
        want = [x for v in fringe for x in REF.get(v, [])]
        assert sorted(np.asarray(got).tolist()) == sorted(want)
        phases[f"expand_{phase}"] = _record(node, db, got)
    return phases


#: Per setting and call: ``_record``'s tuple.
GOLDEN = {
    'comp-link-2q-8': {
        'ingest': (
            '0.1771474662222216', (8, 67, 3840, 7184, 22), '0674a3eb80c8d357',
            (10, 66, 70), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '0.2733186202222217', (21, 67, 6144, 7184, 34), '714c46a15c725ab1',
            (15, 79, 83), (575, 193, 1, 3), (193, 'b4ac157edbe46eb1'),
        ),
        'get_deep': (
            '0.28934439222222164', (24, 67, 6592, 7184, 36), 'e683486a0481597e',
            (15, 82, 86), (575, 212, 2, 3), (19, '3f3669f9feb3fe24'),
        ),
        'get_absent': (
            '0.2893498922222216', (24, 67, 6592, 7184, 36), 'e683486a0481597e',
            (16, 82, 86), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '0.2893498922222216', (24, 67, 6592, 7184, 36), 'e683486a0481597e',
            (16, 82, 86), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '0.39363241022222145', (41, 67, 9024, 7184, 49), 'fabe2fcc563c43f8',
            (25, 99, 103), (575, 669, 16, 3), (457, '9a469b97c13221f5'),
        ),
        'expand_batched': (
            '0.41784570822222117', (44, 67, 9664, 7184, 52), '3298c14a0448b52d',
            (31, 104, 108), (575, 1126, 28, 3), (457, '9a469b97c13221f5'),
        ),
        'expand_fault': (
            '0.45797858822222104', (50, 67, 10432, 7184, 57), '190cd5aada077647',
            (38, 111, 114), (575, 1339, 33, 3), None,
        ),
    },
    'comp-link-lru-4': {
        'ingest': (
            '0.20916033733333278', (10, 77, 4416, 7824, 26), '2fdf684a3be2e16e',
            (1, 75, 90), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '0.24131677133333287', (15, 77, 5248, 7824, 30), '825041217f105fcd',
            (14, 80, 95), (575, 193, 1, 3), (193, 'b4ac157edbe46eb1'),
        ),
        'get_deep': (
            '0.24133870333333288', (16, 77, 5312, 7824, 30), '4958c90e4f82192f',
            (16, 81, 96), (575, 212, 2, 3), (19, '3f3669f9feb3fe24'),
        ),
        'get_absent': (
            '0.24934484333333287', (17, 77, 5376, 7824, 31), '0bee8c1cf92d2845',
            (16, 82, 97), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '0.24934484333333287', (17, 77, 5376, 7824, 31), '0bee8c1cf92d2845',
            (16, 82, 97), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '0.30562288133333265', (29, 77, 7360, 7824, 38), '9e4904ab40d14b0c',
            (30, 94, 109), (575, 669, 16, 3), (457, '9a469b97c13221f5'),
        ),
        'expand_batched': (
            '0.34584257933333235', (34, 77, 8640, 7824, 43), '680ce7a793d62bc1',
            (33, 102, 117), (575, 1126, 28, 3), (457, '9a469b97c13221f5'),
        ),
        'expand_fault': (
            '0.4021341653333318', (46, 77, 10432, 7824, 50), '1ae998ae78ee02a1',
            (57, 115, 129), (575, 1426, 49, 3), None,
        ),
    },
    'comp-move-2q-8': {
        'ingest': (
            '0.13715872333333348', (6, 64, 3712, 7320, 17), '236d367e6024ef53',
            (12, 63, 67), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '0.16130799333333354', (11, 64, 4928, 7320, 20), 'eff152c35c42ecb8',
            (23, 68, 72), (575, 193, 1, 3), (193, 'e569844f745deef9'),
        ),
        'get_deep': (
            '0.16132928533333354', (11, 64, 4928, 7320, 20), 'eff152c35c42ecb8',
            (26, 68, 72), (575, 212, 2, 3), (19, '3f3669f9feb3fe24'),
        ),
        'get_absent': (
            '0.16133478533333354', (11, 64, 4928, 7320, 20), 'eff152c35c42ecb8',
            (27, 68, 72), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '0.16133478533333354', (11, 64, 4928, 7320, 20), 'eff152c35c42ecb8',
            (27, 68, 72), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '0.17758389933333357', (13, 64, 5120, 7320, 22), '6898215cab1b218d',
            (49, 70, 74), (575, 669, 16, 3), (457, 'd8a1e448e91fe389'),
        ),
        'expand_batched': (
            '0.17779389333333365', (13, 64, 5120, 7320, 22), '6898215cab1b218d',
            (61, 70, 74), (575, 1126, 28, 3), (457, 'd8a1e448e91fe389'),
        ),
        'expand_fault': (
            '0.2101852873333334', (23, 64, 5952, 7320, 26), '67f214ce2b6d19e8',
            (104, 81, 84), (575, 1489, 62, 3), None,
        ),
    },
    'comp-move-lru-4': {
        'ingest': (
            '0.16917365666666614', (8, 76, 4352, 8088, 21), 'f26d89eb7cffd5e3',
            (2, 73, 89), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '0.1773120466666662', (10, 76, 4480, 8088, 22), 'ef9135537c7683e9',
            (16, 75, 91), (575, 193, 1, 3), (193, 'e569844f745deef9'),
        ),
        'get_deep': (
            '0.1773333386666662', (10, 76, 4480, 8088, 22), 'ef9135537c7683e9',
            (19, 75, 91), (575, 212, 2, 3), (19, '3f3669f9feb3fe24'),
        ),
        'get_absent': (
            '0.1853394786666662', (11, 76, 4544, 8088, 23), 'eb3db3b358063f3e',
            (19, 76, 92), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '0.1853394786666662', (11, 76, 4544, 8088, 23), 'eb3db3b358063f3e',
            (19, 76, 92), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '0.23360779266666623', (22, 76, 6656, 8088, 29), '5e23125a9ea0798b',
            (32, 87, 103), (575, 669, 16, 3), (457, 'd8a1e448e91fe389'),
        ),
        'expand_batched': (
            '0.26583186666666614', (26, 76, 8064, 8088, 33), 'c4fcbe3f43933618',
            (37, 94, 110), (575, 1126, 28, 3), (457, 'd8a1e448e91fe389'),
        ),
        'expand_fault': (
            '0.29008254266666567', (34, 76, 8768, 8088, 36), '8ae2bc19d7ff1604',
            (60, 103, 118), (575, 1416, 46, 3), None,
        ),
    },
    'raw-link-2q-8': {
        'ingest': (
            '1.0097585511111093', (74, 123, 10304, 18316, 126), '57f4346dc4856de9',
            (437, 122, 114), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '1.138080561111113', (93, 123, 15680, 18316, 142), '853a5d9896ce0c29',
            (458, 141, 133), (575, 193, 1, 3), (193, 'ceda2284c4fb7ad9'),
        ),
        'get_deep': (
            '1.1621169111111136', (97, 123, 16640, 18316, 145), '099b96e1877003a2',
            (458, 145, 137), (575, 212, 2, 3), (19, 'd1f105117e9dc003'),
        ),
        'get_absent': (
            '1.1701230511111136', (98, 123, 16704, 18316, 146), '98adb1ff2a6fab01',
            (458, 146, 138), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '1.1701230511111136', (98, 123, 16704, 18316, 146), '98adb1ff2a6fab01',
            (458, 146, 138), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '1.338575781111119', (123, 123, 21952, 18316, 167), 'abc679da4e86af88',
            (485, 171, 163), (575, 669, 16, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_batched': (
            '1.4029084911111218', (131, 123, 23808, 18316, 175), '69b829300cca501e',
            (501, 180, 170), (575, 1126, 28, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_fault': (
            '1.4511024811111244', (138, 123, 24832, 18316, 181), '20156af9781fd2db',
            (517, 188, 177), (575, 1333, 32, 3), None,
        ),
    },
    'raw-link-lru-4': {
        'ingest': (
            '1.2257923288888894', (87, 136, 11904, 19916, 153), '49c3d988967923b6',
            (424, 135, 131), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '1.3061111388888933', (102, 136, 16960, 19916, 163), 'd2f0b91e750ecf09',
            (449, 150, 146), (575, 193, 1, 3), (193, 'ceda2284c4fb7ad9'),
        ),
        'get_deep': (
            '1.3221423688888938', (105, 136, 17408, 19916, 165), 'e0f3b1296ddf0ef2',
            (450, 153, 149), (575, 212, 2, 3), (19, 'd1f105117e9dc003'),
        ),
        'get_absent': (
            '1.3301485088888938', (106, 136, 17472, 19916, 166), '8dc0cb6b2fb420c8',
            (450, 154, 150), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '1.3301485088888938', (106, 136, 17472, 19916, 166), '8dc0cb6b2fb420c8',
            (450, 154, 150), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '1.4746159588888992', (133, 136, 24192, 19916, 184), '4f9561e8059fadf1',
            (475, 181, 177), (575, 669, 16, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_batched': (
            '1.546963388888902', (143, 136, 27520, 19916, 193), 'b5d2ced50c065564',
            (486, 195, 191), (575, 1126, 28, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_fault': (
            '1.6111984188889048', (155, 136, 30848, 19916, 201), '23dd2244f063302e',
            (500, 208, 203), (575, 1339, 33, 3), None,
        ),
    },
    'raw-move-2q-8': {
        'ingest': (
            '1.0259298555555536', (81, 118, 10560, 17168, 128), '2e7da91283ac1209',
            (471, 123, 115), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '1.066192625555557', (89, 118, 13312, 17168, 133), '3df74fa92a74b102',
            (497, 131, 123), (575, 193, 1, 3), (193, 'ceda2284c4fb7ad9'),
        ),
        'get_deep': (
            '1.0662138755555572', (89, 118, 13312, 17168, 133), '3df74fa92a74b102',
            (500, 131, 123), (575, 212, 2, 3), (19, 'd1f105117e9dc003'),
        ),
        'get_absent': (
            '1.0742200155555572', (90, 118, 13376, 17168, 134), '77ab7b80e34c54f2',
            (500, 132, 124), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '1.0742200155555572', (90, 118, 13376, 17168, 134), '77ab7b80e34c54f2',
            (500, 132, 124), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '1.1305935455555618', (98, 118, 15104, 17168, 141), '54a70ea2d3112298',
            (536, 140, 132), (575, 669, 16, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_batched': (
            '1.1789092355555644', (104, 118, 16768, 17168, 147), 'd4097fae30b9fa29',
            (553, 147, 139), (575, 1126, 28, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_fault': (
            '1.2191993155555685', (113, 118, 18176, 17168, 152), '0c54e56dcb5761fa',
            (581, 157, 148), (575, 1394, 40, 3), None,
        ),
    },
    'raw-move-lru-4': {
        'ingest': (
            '1.2819852511111127', (92, 129, 13184, 19792, 160), '04e481dda89f817c',
            (460, 134, 130), (575, 0, 0, 3), None,
        ),
        'get_hub': (
            '1.338268501111116', (104, 129, 17984, 19792, 167), '6711520160ebbdf4',
            (482, 146, 142), (575, 193, 1, 3), (193, 'ceda2284c4fb7ad9'),
        ),
        'get_deep': (
            '1.3382903911111164', (105, 129, 18048, 19792, 167), '8f2b4731840072ab',
            (484, 147, 143), (575, 212, 2, 3), (19, 'd1f105117e9dc003'),
        ),
        'get_absent': (
            '1.3462965311111164', (106, 129, 18112, 19792, 168), '0cfc543b49648d0b',
            (484, 148, 144), (575, 212, 3, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'get_negative': (
            '1.3462965311111164', (106, 129, 18112, 19792, 168), '0cfc543b49648d0b',
            (484, 148, 144), (575, 212, 4, 3), (0, 'e3b0c44298fc1c14'),
        ),
        'expand_per_vertex': (
            '1.434708461111121', (125, 129, 23680, 19792, 179), '22d950ac4a1c85bb',
            (509, 167, 163), (575, 669, 16, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_batched': (
            '1.4990510311111236', (136, 129, 28032, 19792, 187), '006d047b0a63457a',
            (519, 181, 177), (575, 1126, 28, 3), (457, 'b13458c30b00099a'),
        ),
        'expand_fault': (
            '1.5714680511111296', (154, 129, 32384, 19792, 196), '5ed291a321d2ca0b',
            (554, 200, 195), (575, 1432, 50, 3), None,
        ),
    },
    'Array': {
        'ingest': (
            '0.0001265', None, None,
            None, (575, 0, 0, 3), None,
        ),
        'expand_staged': (
            '0.00024075000000000002', None, None,
            None, (575, 457, 15, 3), (457, 'b13458c30b00099a'),
        ),
        'finalize': (
            '0.0003845', None, None,
            None, (575, 457, 15, 3), None,
        ),
        'expand_finalized': (
            '0.00049875', None, None,
            None, (575, 914, 30, 3), (457, 'b13458c30b00099a'),
        ),
    },
    'HashMap': {
        'ingest': (
            '0.0001265', None, None,
            None, (575, 0, 0, 3), None,
        ),
        'expand_staged': (
            '0.0003583', None, None,
            None, (575, 457, 15, 3), (457, 'b13458c30b00099a'),
        ),
        'finalize': (
            '0.0003583', None, None,
            None, (575, 457, 15, 3), None,
        ),
        'expand_finalized': (
            '0.0005900999999999999', None, None,
            None, (575, 914, 30, 3), (457, 'b13458c30b00099a'),
        ),
    },
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_grdb_golden(setting):
    assert _run_grdb(setting) == GOLDEN[setting]


@pytest.mark.parametrize("backend", ["Array", "HashMap"])
def test_inmemory_golden(backend):
    assert _run_inmemory(backend) == GOLDEN[backend]
