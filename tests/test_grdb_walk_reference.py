"""grDB's per-vertex chain walk against the walker it replaced.

``GrDB._walk_chains`` adds its charges to a local float and publishes it
to the node clock before every cache miss and once on exit; the hit path
calls the cache's ``get`` directly and a miss goes to
``GrDBStorage._fetch_block``.  What it replaced — one ``clock.advance``,
one ``subblock_span`` and one ``_read_block`` per sub-block, four numpy
calls per vertex — lives on here as :func:`reference_walk_chains`, a
function of the store, and is the oracle.

Twin stores are built from the same hypothesis-drawn windows; one walks
with the reference, one with the store's own walker.  Every call — a
per-vertex ``expand_fringe`` (``batch_io`` off) or a ``get_adjacency`` —
must leave both with the same answer bytes, ``clock.now.hex()``, cache
counters, every device's ``DiskStats`` and ops count and ``db.stats``;
a call that raises must raise the same exception, at the same state.
Faults drawn: ``fail`` after some device operations or at a virtual time
that falls inside the calls, ``slow``, and ``corrupt`` on raw sub-blocks
(no checksums, so rotten words come back as data).  With and without an
OS page cache (the experiments' disk profile).
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.harness import EXPERIMENT_NODE_SPEC
from repro.graphdb.grdb.format import (
    EMPTY_SLOT,
    SLOT_BYTES,
    GrDBFormat,
    decode_pointer,
    is_pointer,
)
from repro.graphdb.idmap import ModuloMap
from repro.simcluster import NodeSpec, SimNode
from repro.simcluster.faults import DiskFault, FaultPlan
from repro.util import DeviceFailedError, GraphStorageException

from .helpers import make_store

_EMPTY = np.empty(0, dtype=np.int64)


def reference_walk_chains(db, vertices, account: bool = True) -> np.ndarray:
    """The replaced ``GrDB._walk_chains``: per sub-block one
    ``clock.advance``, one ``subblock_span`` and one ``_read_block``."""
    fmt, cpu, clock, stats = db.fmt, db.cpu, db.clock, db.stats
    read_block, span = db.storage._read_block, fmt.subblock_span
    sub_s, decode_s = cpu.grdb_subblock_seconds, cpu.varint_decode_seconds
    edge_s = cpu.edge_visit_seconds
    fringe = np.asarray(vertices, dtype=np.int64)
    locals_, owned = db.id_map.to_local_many(fringe)
    out = []
    for vertex, local, mine in zip(fringe.tolist(), locals_.tolist(), owned.tolist()):
        parts = []
        level, sb, hops = 0, local, 0
        while mine:
            if fmt.compress:
                block, start, stop = span(level, sb)
                frame = read_block(level, block)[start:stop]
                values, tail, consumed = fmt.decode_subblock(frame)
                clock.advance(sub_s + consumed * decode_s)
                parts.append(values)
                more = is_pointer(tail)
            else:
                clock.advance(sub_s)
                block, start, stop = span(level, sb)
                data = read_block(level, block)
                end = stop - SLOT_BYTES
                tail = int.from_bytes(data[end:stop], "little")
                more = is_pointer(tail)
                parts.append(data[start : end if more else stop])
            if not more:
                break
            level, sb = decode_pointer(tail)
            hops += 1
            if hops > 1 << 20:
                raise GraphStorageException(f"runaway chain for vertex {vertex}")
        flat = _EMPTY
        if parts:
            if fmt.compress:
                flat = np.concatenate(parts)
            else:
                flat = np.frombuffer(b"".join(parts), dtype="<u8")
            flat = flat[flat != EMPTY_SLOT].astype(np.int64)
        if account:
            stats.adjacency_requests += 1
            stats.edges_scanned += len(flat)
            clock.advance(len(flat) * edge_s)
        out.append(flat)
    return np.concatenate(out) if out else _EMPTY


#: Four levels, several files per level: hubs chain far past the top.
FMT = GrDBFormat(
    capacities=(2, 4, 8, 16), block_sizes=(64, 128, 256, 512), max_file_bytes=1024
)
NPARTS = 2  # the store owns the even ids
CACHES = {
    "lru-0": dict(cache_policy="lru", cache_blocks=0),
    "lru-4": dict(cache_policy="lru", cache_blocks=4),
    "2q-8": dict(cache_policy="2q", cache_blocks=8),
}
SPECS = {"plain": NodeSpec(), "os-cache": EXPERIMENT_NODE_SPEC}


@st.composite
def windows(draw):
    """One to three ingest windows over owned sources; one hub gets many
    entries, so some chains run long at the top level."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        hub = draw(st.integers(1, 150))
        srcs = draw(st.lists(st.integers(0, 24).map(lambda i: NPARTS * i), max_size=40))
        srcs = [0] * hub + srcs
        dsts = draw(st.lists(st.integers(0, 400), min_size=len(srcs), max_size=len(srcs)))
        out.append(np.column_stack((srcs, dsts)).astype(np.int64))
    return out


#: Fringe ids: duplicates, odd ids this store does not own, owned ids never
#: stored, and negative ids (which ``GraphDB`` answers before the walk).
vertex_ids = st.integers(-2, 60)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("expand"), st.lists(vertex_ids, min_size=1, max_size=12)),
        st.tuples(st.just("get"), vertex_ids),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def faults(draw, compress):
    """``None`` or ``(kind, trigger, at, pick, (offset, length))``: the
    fault fires ``at`` (a fraction) of the way through the calls, counted
    in operations of the ``pick``-th device they touch (``trigger="ops"``)
    or in virtual time (``"time"``); ``corrupt`` damages ``length`` bytes
    from ``offset``."""
    kinds = ["none", "fail", "fail", "slow"] + ([] if compress else ["corrupt"])  # fail x2
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return None
    trigger = "ops" if kind == "corrupt" else draw(st.sampled_from(["ops", "time"]))
    at = draw(st.floats(0.0, 1.0))
    pick = draw(st.integers(0, 7))
    return kind, trigger, at, pick, draw(st.tuples(st.integers(0, 1024), st.integers(1, 512)))


def _build(setup, edges_windows, reference):
    compress, growth, cache, spec = setup
    node = SimNode(0, SPECS[spec])
    db = make_store(
        "grDB",
        node,
        grdb_format=dataclasses.replace(FMT, compress=compress),
        growth_policy=growth,
        id_map=ModuloMap(NPARTS, 0),
        batch_io=False,
        **CACHES[cache],
    )
    for edges in edges_windows:
        db.store_edges(edges)
    db.flush()
    if reference:
        db._walk_chains = functools.partial(reference_walk_chains, db)
    return node, db


def _state(node, db):
    disks = [
        (name, dev.ops, dev.failed, dataclasses.astuple(dev.stats))
        for name, dev in sorted(node._disks.items())
    ]
    pool = getattr(node, "shared_block_cache", None)
    stats = dataclasses.astuple(db.stats)
    return (
        node.clock.now.hex(),
        [type(x).__name__ for x in (node.clock.now, *stats)],  # no numpy scalar leaks in
        dataclasses.astuple(db.storage.cache.stats),
        None if pool is None else dataclasses.astuple(pool.stats),
        disks,
        stats,
    )


def _call(node, db, call):
    """Run one call; ``(answer bytes or exception, state after)``."""
    what, arg = call
    try:
        if what == "expand":
            got = db.expand_fringe(np.asarray(arg, dtype=np.int64))
        else:
            got = db.get_adjacency(arg)
        outcome = (got.dtype.str, got.tobytes())
    except Exception as exc:  # compared, type and message, with the twin's
        outcome = (type(exc), str(exc))
    return outcome, _state(node, db)


def _install(node, fault, start, dry):
    """Install ``fault`` on ``node``, placed by the dry run ``dry``:
    ``(virtual seconds, {device: operations})`` the calls took."""
    if fault is None:
        return
    kind, trigger, at, pick, (offset, length) = fault
    duration, ops = dry
    names = sorted(name for name, n in ops.items() if n) or sorted(ops)
    name = names[pick % len(names)]
    if trigger == "ops":
        when = dict(after_ops=node._disks[name].ops + int(at * ops[name]))
    else:
        when = dict(at_time=start + at * duration)
    if kind == "corrupt":
        when.update(offset=offset, length=length)
    fault = DiskFault(node=0, device=name, kind=kind, slow_factor=4.0, **when)
    node.install_fault_plan(FaultPlan([fault]))


def _dry_run(setup, edges_windows, plan):
    """The calls' virtual duration and per-device operations on the
    reference, fault-free."""
    node, db = _build(setup, edges_windows, reference=True)
    start = node.clock.now
    before = {name: dev.ops for name, dev in node._disks.items() if name.startswith("grdb_L")}
    for call in plan:
        _call(node, db, call)
    ops = {name: node._disks[name].ops - n for name, n in before.items()}
    return start, (node.clock.now - start, ops)


def _check_twins(setup, edges_windows, plan, fault):
    """Twin stores, reference and own walker, run ``plan`` under ``fault``
    and must agree after every call; returns the last call's outcomes."""
    start, dry = _dry_run(setup, edges_windows, plan)
    twins = [_build(setup, edges_windows, reference=ref) for ref in (True, False)]
    for node, _ in twins:
        assert node.clock.now == start
        _install(node, fault, start, dry)
    assert _state(*twins[0]) == _state(*twins[1])
    for call in plan:
        want, got = (_call(node, db, call) for node, db in twins)
        assert got == want, call
    return want, got


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    setup=st.tuples(
        st.booleans(),
        st.sampled_from(["link", "move"]),
        st.sampled_from(sorted(CACHES)),
        st.sampled_from(sorted(SPECS)),
    ),
    edges_windows=windows(),
    plan=calls,
    data=st.data(),
)
def test_walk_matches_reference(setup, edges_windows, plan, data):
    _check_twins(setup, edges_windows, plan, data.draw(faults(setup[0])))


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("trigger", ["ops", "time"])
def test_fail_mid_fringe_matches_reference(compress, trigger):
    """A device dies halfway through one per-vertex fringe: the vertices
    walked before it are counted, the one it interrupts is not."""
    rng = np.random.default_rng(7)
    srcs = np.concatenate((np.zeros(120, dtype=np.int64), NPARTS * rng.integers(0, 25, 80)))
    edges = np.column_stack((srcs, rng.integers(0, 400, len(srcs))))
    plan = [("get", 0), ("expand", [0, 2, 4]), ("expand", list(range(0, 50)) + [0, 0])]
    fault = ("fail", trigger, 0.5, 0, (0, 1))
    (outcome, state), _ = _check_twins((compress, "link", "lru-0", "plain"), [edges], plan, fault)
    assert outcome[0] is DeviceFailedError
    earlier = 1 + len(plan[1][1])  # requests of the first two calls
    assert 0 < state[-1][2] - earlier < len(plan[-1][1])  # stats.adjacency_requests
