"""grDB's raw window append against the per-vertex append it replaced.

``GrDB._append_raw`` appends a whole window to raw chains in one loop: its
charges add up in a local float published to the node clock before every
call that may touch a device (a cache miss, a dirty ``put``, a
write-through) and once on exit; a tail is a ``bytearray`` its new entries
are spliced into.  What it replaced — one ``_tail_info`` (memo row or
``_walk``), one ``_read_slots`` / ``_write_slots`` per sub-block, numpy
slot arrays per vertex — lives on here as :func:`reference_append`, a
function of the store, and is the oracle.

Twin stores, one appending with the reference and one with the store's own
loop, take the same hypothesis-drawn windows: raw format, ``link`` and
``move``, cache capacity 0, a 4-block private LRU and a 2q shared-pool
partition, hubs that chain past the top level, and optionally a reopen
(memo unknown) before the appends under test.  After every window both
must hold the same ``clock.now.hex()``, cache counters and cache contents
(LRU order and dirty set), per-device ``DiskStats``, ops and bytes,
``db.stats``, memo, allocator state and ``_written_blocks``; a window that
raises must raise the same exception.  Faults drawn: ``fail``, ``crash``
(a torn write, then a dead device) and ``slow``, each triggered after some
device operations or at a virtual time that falls inside the windows.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphdb.grdb.format import GrDBFormat, encode_pointer
from repro.graphdb.idmap import ModuloMap
from repro.simcluster import NodeSpec, SimNode
from repro.simcluster.faults import DiskFault, FaultPlan
from repro.util import DeviceFailedError

from .helpers import make_store

_LEVEL = 0  # the memo's tail-level column


def reference_tail_info(db, local):
    """The replaced ``GrDB._tail_info``: the memo row, or one ``_walk``."""
    level, sb, used, plevel, psb = db._memo[local].tolist()
    if level < 0:
        path, used = db._walk(local)
        db._remember(local, path, used)
        return path, used
    return ([(plevel, psb)] if plevel >= 0 else []) + [(level, sb)], used


def reference_append(db, local, new):
    """The replaced ``GrDB._append``: one vertex, numpy slot arrays."""
    path, used = reference_tail_info(db, local)
    level, sb = path[-1]
    slots = db._read_slots(level, sb).copy()
    caps = db.fmt.capacities
    top = db.fmt.num_levels - 1
    i = 0
    new_u64 = new.astype("<u8")
    while True:
        cap = caps[level]
        take = min(cap - used, len(new_u64) - i)
        if take > 0:
            slots[used : used + take] = new_u64[i : i + take]
            used += take
            i += take
        if i >= len(new_u64):
            break
        if db.growth_policy == "move" and 1 <= level < top:
            tgt = level + 1
            nsb = db.storage.allocate_subblock(tgt)
            nslots = db.fmt.parse_slots(db.fmt.empty_subblock(tgt)).copy()
            nslots[:cap] = slots[:cap]
            db.storage.free_subblock(level, sb)
            plevel, psb = path[-2]
            pslots = db._read_slots(plevel, psb).copy()
            pslots[caps[plevel] - 1] = encode_pointer(tgt, nsb)
            db._write_slots(plevel, psb, pslots)
            path[-1] = (tgt, nsb)
            level, sb, slots = tgt, nsb, nslots
        else:
            tgt = min(level + 1, top)
            nsb = db.storage.allocate_subblock(tgt)
            displaced = slots[cap - 1]
            slots[cap - 1] = encode_pointer(tgt, nsb)
            db._write_slots(level, sb, slots)
            nslots = db.fmt.parse_slots(db.fmt.empty_subblock(tgt)).copy()
            nslots[0] = displaced
            used = 1
            path.append((tgt, nsb))
            level, sb, slots = tgt, nsb, nslots
    db._write_slots(level, sb, slots)
    db._remember(local, path, used)


def reference_append_raw(db, locals_, bounds, new):
    for local, lo, hi in zip(locals_.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        reference_append(db, local, new[lo:hi])


#: Four levels, several files per level: hubs chain far past the top.
FMT = GrDBFormat(capacities=(2, 4, 8, 16), block_sizes=(64, 128, 256, 512), max_file_bytes=1024)
NPARTS = 2  # the store owns the even ids
CACHES = {
    "lru-0": dict(cache_policy="lru", cache_blocks=0),
    "lru-4": dict(cache_policy="lru", cache_blocks=4),
    "2q-8": dict(cache_policy="2q", cache_blocks=8),
}


@st.composite
def windows(draw, max_windows=3):
    """One to ``max_windows`` windows over owned sources; one hub gets
    many entries, so some chains run past the top level."""
    out = []
    for _ in range(draw(st.integers(1, max_windows))):
        hub = draw(st.integers(0, 120))
        srcs = draw(st.lists(st.integers(0, 30).map(lambda i: NPARTS * i), min_size=1, max_size=50))
        srcs = [NPARTS * draw(st.integers(0, 3))] * hub + srcs
        dsts = draw(st.lists(st.integers(0, 500), min_size=len(srcs), max_size=len(srcs)))
        out.append(np.column_stack((srcs, dsts)).astype(np.int64))
    return out


@st.composite
def faults(draw):
    """``None`` or ``(kind, trigger, at, pick)``: the fault fires ``at``
    (a fraction) of the way through the windows under test, counted in
    operations of the ``pick``-th level file they touch (``"ops"``) or in
    virtual time (``"time"``)."""
    kind = draw(st.sampled_from(["none", "fail", "crash", "slow"]))
    if kind == "none":
        return None
    trigger = draw(st.sampled_from(["ops", "time"]))
    return kind, trigger, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 15))


def _open(node, setup, reference):
    growth, cache, _ = setup
    db = make_store(
        "grDB",
        node,
        grdb_format=FMT,
        growth_policy=growth,
        id_map=ModuloMap(NPARTS, 0),
        batch_io=False,
        **CACHES[cache],
    )
    if reference:
        db._append_raw = functools.partial(reference_append_raw, db)
    return db


def _build(setup, before, reference):
    """A store holding the windows ``before``; reopened (memo unknown,
    cache empty) when the setup asks for it."""
    node = SimNode(0, NodeSpec())
    db = _open(node, setup, reference)
    for edges in before:
        db.store_edges(edges)
    if setup[2]:
        db.flush()
        db = _open(node, setup, reference)
    return node, db


def _cache_image(db, node):
    pool = getattr(node, "shared_block_cache", None)
    if pool is None:
        cache = db.storage.cache
        return list(cache._blocks.items()), sorted(cache._dirty)
    return list(pool._probation.items()), list(pool._protected.items()), sorted(pool._dirty)


def _state(node, db):
    storage = db.storage
    disks = [
        (name, dev.ops, dev.failed, dataclasses.astuple(dev.stats), dev.backing.read(0, dev.size()))
        for name, dev in sorted(node._disks.items())
    ]
    pool = getattr(node, "shared_block_cache", None)
    return (
        node.clock.now.hex(),
        dataclasses.astuple(storage.cache.stats),
        None if pool is None else dataclasses.astuple(pool.stats),
        _cache_image(db, node),
        disks,
        dataclasses.astuple(db.stats),
        db._memo.tobytes(),
        (list(storage._next_subblock), [list(f) for f in storage._free]),
        sorted(storage._written_blocks),
    )


def _store(node, db, edges):
    """Store one window; ``(exception or None, state after)``."""
    try:
        db.store_edges(edges)
        outcome = None
    except Exception as exc:  # compared, type and message, with the twin's
        outcome = (type(exc), str(exc))
    return outcome, _state(node, db)


def _level_files(node):
    return {name: dev.ops for name, dev in node._disks.items() if name.startswith("grdb_L")}


def _install(node, fault, start, dry):
    """Install ``fault`` on ``node``, placed by the dry run ``dry``:
    ``(virtual seconds, {level file: operations})`` the windows took."""
    if fault is None:
        return
    kind, trigger, at, pick = fault
    duration, ops = dry
    names = sorted(name for name, n in ops.items() if n) or ["grdb_L0_F0"]
    name = names[pick % len(names)]
    if trigger == "ops":
        now = _level_files(node).get(name, 0)
        when = dict(after_ops=now + int(at * ops.get(name, 0)))
    else:
        when = dict(at_time=start + at * duration)
    fault = DiskFault(node=0, device=name, kind=kind, slow_factor=4.0, **when)
    node.install_fault_plan(FaultPlan([fault]))


def _check_twins(setup, before, plan, fault):
    """Twin stores, reference and own append, store ``plan`` under
    ``fault`` and must agree after every window; returns the last
    window's outcomes."""
    node, db = _build(setup, before, reference=True)
    start, files = node.clock.now, _level_files(node)
    for edges in plan:
        _store(node, db, edges)
    after = _level_files(node)
    dry = (node.clock.now - start, {n: k - files.get(n, 0) for n, k in after.items()})
    twins = [_build(setup, before, reference=ref) for ref in (True, False)]
    for node, _ in twins:
        assert node.clock.now == start
        _install(node, fault, start, dry)
    assert _state(*twins[0]) == _state(*twins[1])
    for edges in plan:
        want, got = (_store(node, db, edges) for node, db in twins)
        assert got == want
    return want, got


SETUP = st.tuples(st.sampled_from(["link", "move"]), st.sampled_from(sorted(CACHES)), st.booleans())


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(setup=SETUP, before=windows(2), plan=windows(), fault=faults())
def test_append_matches_reference(setup, before, plan, fault):
    _check_twins(setup, before, plan, fault)


def _hub_windows(seed):
    rng = np.random.default_rng(seed)
    srcs = np.concatenate((np.zeros(90, dtype=np.int64), NPARTS * rng.integers(0, 30, 120)))
    return [np.column_stack((srcs, rng.integers(0, 500, len(srcs))))]


@pytest.mark.parametrize("growth", ["link", "move"])
@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("kind", ["fail", "crash"])
@pytest.mark.parametrize("trigger", ["ops", "time"])
def test_device_death_mid_window_matches_reference(growth, cache, kind, trigger):
    """A level file dies halfway through a window appended after a
    reopen: the vertices appended before it have memo rows again, the
    ones after it still have none."""
    plan = _hub_windows(2)
    fault = (kind, trigger, 0.5, 0)
    (outcome, state), _ = _check_twins((growth, cache, True), _hub_windows(1), plan, fault)
    assert outcome[0] is DeviceFailedError
    memo = np.frombuffer(state[6], dtype=np.int64).reshape(-1, 5)
    known = memo[np.unique(plan[0][:, 0]) // NPARTS, _LEVEL] >= 0
    assert known.any() and not known.all()


def test_reference_appends_in_arrival_order():
    """The oracle itself: a reopened ``move`` store, appended to by the
    reference, gives back every stored entry in arrival order."""
    node, db = _build(("move", "lru-4", True), _hub_windows(3), reference=True)
    db.store_edges(_hub_windows(4)[0])
    expect = {}
    for edges in (*_hub_windows(3), *_hub_windows(4)):
        for s, d in edges.tolist():
            expect.setdefault(s, []).append(d)
    for s, want in expect.items():
        assert db.get_adjacency(s).tolist() == want, s
