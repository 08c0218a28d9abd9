"""Every ``GraphDB`` read against a dict-of-lists oracle, on every backend.

Six backends x finalized or not x raw or compressed (grDB, StreamDB) x
reopened over their own devices (the four out-of-core stores) hold a drawn
multigraph, and every read method answers a drawn fringe: ids stored, in the
gaps, past the end, negative, 2^31, 2^61 and 2^63 - 1.  Answers must equal
the oracle's and each call must count the adjacency requests it answers.
An id the store cannot hold — negative, past a finalized Array's ``xadj``,
at or past grDB's 2^61 — answers empty from ``GraphDB``'s id-space boundary:
a fringe made only of such ids moves no clock, no device counter, no cache
counter and no stored-edge counter.  The four reopenable stores also take
more edges after a reopen and answer over the union, out-degrees included,
and ``local_vertices`` charges nothing at all, fresh or reopened: a
reopened store rebuilt its census at open.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphdb import BACKENDS, OP_ALL, AdjacencyBatch
from repro.services.streaming import DeltaOverlay
from repro.simcluster import NodeSpec, SimNode

from .helpers import make_store

#: ``(backend, compressed, reopen)`` — compression where a store has a
#: codec, a reopen over the same devices where a store restores one.
STORES = [
    (backend, compressed, reopen)
    for backend in BACKENDS
    for compressed in ((False, True) if backend in ("grDB", "StreamDB") else (False,))
    for reopen in ((False, True) if backend not in ("Array", "HashMap") else (False,))
]

#: ``(backend, compressed)`` of the stores that restore at open.
REOPENABLE = [(backend, compressed) for backend, compressed, reopen in STORES if reopen]

#: Stored sources are drawn below this; 24 and up are past the end.
SOURCES = 24
#: Stored, gaps, past the end, negative and the far ids.
FAR = [
    -1, -5, -(2**63), 24, 30, 999,
    2**31, 2**61 - 1, 2**61, 2**63 - 1,
]
IDS = st.one_of(st.integers(0, SOURCES - 1), st.sampled_from(FAR))
EDGES = st.lists(
    st.tuples(
        st.integers(0, SOURCES - 1),
        st.one_of(st.integers(0, 40), st.sampled_from([2**31, 2**61 - 1])),
    ),
    max_size=60,
)
FRINGES = st.lists(st.lists(IDS, max_size=8), min_size=1, max_size=3)

#: The contract's sample graph and its outside ids (past the end, far,
#: INT64_MAX, negative), alone and beside a stored vertex.
SAMPLE_EDGES = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (7, 9)]
OUTSIDE = [8, 999, 2**63 - 1, -1]


def bound(backend: str, finalized: bool, oracle: dict) -> int:
    """One past the largest id ``backend`` can hold, as its design states."""
    if backend == "grDB":
        return 2**61
    if backend == "Array" and finalized:
        return max(oracle) + 1 if oracle else 0
    return 2**63


def charges(db, node) -> tuple:
    """Everything a read may charge except its request count."""
    caches = [getattr(db, "cache_stats", None)]
    if db.name == "MySQL":
        caches.append(db.db.index.cache.stats)
    stats = dataclasses.replace(db.stats, adjacency_requests=0)
    devices = [(name, dataclasses.astuple(dev.stats)) for name, dev in sorted(node._disks.items())]
    statements = db.db.statements_executed if db.name == "MySQL" else 0
    log = getattr(db, "log_edges_scanned", 0)
    return node.clock.now, devices, repr(caches), stats, log, statements


def build(backend, compressed, reopen, finalized, edges, windows):
    node = SimNode(0, NodeSpec())
    kw = dict(compress_adjacency=compressed, checksums=reopen)
    db = make_store(backend, node, **kw)
    for part in np.array_split(np.asarray(edges, dtype=np.int64).reshape(-1, 2), windows):
        db.store_edges(part)
    if finalized:
        db.finalize_ingest()
    if reopen:
        db.flush()
        db = make_store(backend, node, **kw)
    return db, node


def grouped(batches) -> dict[int, list[int]]:
    assert all(len(b) and len(b.neighbors) for b in batches)  # no empty batch
    whole = AdjacencyBatch.concat(batches).grouped()
    return {v: sorted(lst.tolist()) for v, lst in whole}


def assert_reads_match(db, node, finalized, edges, fringes):
    """Every read of ``db`` against the dict-of-lists oracle of ``edges``."""
    backend = db.name
    oracle: dict[int, list[int]] = {}
    for src, dst in edges:
        oracle.setdefault(src, []).append(dst)
    want = {v: sorted(lst) for v, lst in oracle.items()}
    limit = bound(backend, finalized, oracle)
    outside = sorted({v for v in FAR + list(range(SOURCES)) if not 0 <= v < limit})

    def call(read, vs, requests):
        """``read()``'s answer, checking it counted ``requests`` and, when
        no id of ``vs`` is in the store's space, charged nothing else."""
        before, asked = charges(db, node), db.stats.adjacency_requests
        answer = read()
        assert db.stats.adjacency_requests - asked == requests
        if all(v in outside for v in vs):
            assert charges(db, node) == before
        return answer

    for fringe in fringes + [outside]:
        for v in fringe:
            got = call(lambda: db.get_adjacency(v), [v], 1)
            assert sorted(got.tolist()) == want.get(v, [])
            got = call(lambda: db.get_adjacency_list_using_metadata(v, 0, OP_ALL), [v], 1)
            assert sorted(got.tolist()) == want.get(v, [])
        got = call(lambda: list(db.scan_adjacency(fringe)), fringe, 0)
        assert grouped(got) == {v: want[v] for v in sorted(set(fringe)) if v in want}
        # StreamDB answers each wanted vertex once, however often it is named.
        named = sorted(set(fringe)) if backend == "StreamDB" else fringe
        got = call(lambda: db.expand_fringe(fringe), fringe, len(fringe))
        assert sorted(got.tolist()) == sorted(x for v in named for x in oracle.get(v, []))
        assert db.degree_many(fringe).tolist() == [len(oracle.get(v, [])) for v in fringe]
    assert grouped(list(db.scan_adjacency())) == want
    assert db.local_vertices().tolist() == sorted(oracle)


@pytest.mark.parametrize("finalized", [False, True], ids=["staged", "finalized"])
@pytest.mark.parametrize(("backend", "compressed", "reopen"), STORES)
@settings(max_examples=15, deadline=None)
@given(edges=EDGES, windows=st.integers(1, 2), fringes=FRINGES)
@example(edges=SAMPLE_EDGES, windows=1, fringes=[OUTSIDE, OUTSIDE + [7]])
def test_reads_match_the_oracle(backend, compressed, reopen, finalized, edges, windows, fringes):
    db, node = build(backend, compressed, reopen, finalized, edges, windows)
    assert_reads_match(db, node, finalized, edges, fringes)


@pytest.mark.parametrize(("backend", "compressed"), REOPENABLE)
@settings(max_examples=15, deadline=None)
@given(edges=EDGES, cut=st.integers(0, 60), fringes=FRINGES)
@example(edges=SAMPLE_EDGES, cut=3, fringes=[OUTSIDE + [0, 7]])
def test_reopen_then_ingest_reads_match_the_union(backend, compressed, edges, cut, fringes):
    """Part stored, flushed and reopened, the rest stored after: the census
    rebuilt at open counts the part, the rest adds to it, and every read
    answers over the union."""
    db, node = build(backend, compressed, True, False, edges[:cut], 1)
    db.store_edges(np.asarray(edges[cut:], dtype=np.int64).reshape(-1, 2))
    assert_reads_match(db, node, False, edges, fringes)


@pytest.mark.parametrize("finalized", [False, True], ids=["staged", "finalized"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_local_vertices_charges_nothing(backend, finalized):
    """Every store enumerates from its census — a reopened one from the
    census it rebuilt at open: no clock, device, cache, stats, log or
    statement charge."""
    reopens = (False, True) if (backend, False) in REOPENABLE else (False,)
    for reopen in reopens:
        db, node = build(backend, False, reopen, finalized, SAMPLE_EDGES, 1)
        before = charges(db, node)
        assert db.local_vertices().tolist() == [0, 1, 2, 3, 7]
        assert charges(db, node) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_in_space_fringe_reaches_the_store_uncopied(backend, monkeypatch):
    db, _ = build(backend, False, False, True, SAMPLE_EDGES, 1)
    seen = []
    monkeypatch.setattr(db, "_expand_fringe", lambda vs: seen.append(vs) or vs[:0])
    fringe = np.array([7, 0, 3, 0])
    db.expand_fringe(fringe)
    db.expand_fringe(np.array([7, -1, 0]))
    assert seen[0] is fringe and seen[1].tolist() == [7, 0]


def test_the_overlay_answers_ids_past_the_base_bound():
    """The boundary gates the base store only: a streamed batch may name a
    vertex past a finalized Array's ``xadj``, and reads still find it."""
    db, _ = build("Array", False, False, True, SAMPLE_EDGES, 1)
    db._stream_overlay = DeltaOverlay()
    db._stream_overlay.append(1, np.array([[50, 51], [7, 4]]))
    db._stream_overlay.published = 1
    assert db.get_adjacency(50).tolist() == [51]
    assert db.expand_fringe([50, 7, -1]).tolist() == [9, 51, 4]
    assert grouped(list(db.scan_adjacency([50, 7, -1]))) == {7: [4, 9], 50: [51]}
    assert db.stats.adjacency_requests == 4
