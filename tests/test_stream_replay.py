"""StreamDB replay equivalence at the GraphDB surface.

Both encodings replay as one CSR batch per record: a compressed record in
the ``(src, dst)`` order its encoder wrote, a raw (paper-mode) scan chunk
grouped by source with each list in arrival order.  Both must answer alike —
over logs of one and of several records, with vertices recurring across
records and duplicate edges, after a restore, with the ``ScanBoard`` armed,
after ``compact()`` and inside a drain — and each plan must charge exactly
what the flat ``(E, 2)`` plans charged (the pinned goldens at the bottom).
"""

import dataclasses

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.graphdb.interface import AdjacencyBatch
from repro.graphdb.stream_db import _CREC_HEADER, _WRITE_BUFFER_EDGES, StreamGraphDB
from repro.services.sharedscan import LOG_REPLAY, ScanBoard
from repro.simcluster import NodeSpec, SimNode
from repro.simcluster.faults import DiskFault, FaultPlan
from repro.storage.integrity import wrap_device
from repro.util.errors import CorruptBlockError, GraphStorageException

from .helpers import census

ABSENT = 10**6


def log_chunks(shifts, size=_WRITE_BUFFER_EDGES + 300) -> list[np.ndarray]:
    """One ``(E, 2)`` chunk per future log record: arithmetic, not drawn (the
    goldens are pinned to it).  Chunk ``r`` has sources ``shifts[r] ..
    shifts[r] + 310``, so nearby shifts make vertices recur across records;
    its last 40 edges repeat its first 40."""
    chunks = []
    for r, shift in enumerate(shifts):
        i = np.arange(size + 97 * r, dtype=np.int64) + 100_003 * r
        chunk = np.column_stack([(i * 7919) % 311 + shift, (i * 104_729) % 2003])
        chunk[-40:] = chunk[:40]
        chunks.append(chunk)
    return chunks


LOGS = {
    "one record": log_chunks([0], size=3000),
    "three records": log_chunks([0, 13, 150]),
}


def build(compress, chunks, *, durable=False, node=None):
    node = node or SimNode(0, NodeSpec())
    db = StreamGraphDB(
        node.disk("log"),
        meta_device=node.disk("log_meta") if durable else None,
        compress=compress,
        clock=node.clock,
        cpu=node.spec.cpu,
    )
    for chunk in chunks:
        db.store_edges(chunk)  # >= 8192 buffered edges: one flush, one record
    return node, db


def record_order_lists(chunks) -> dict[int, list[int]]:
    """Each vertex's list as a compressed log delivers it: record by record,
    destinations ascending within a record."""
    lists: dict[int, list[int]] = {}
    for chunk in chunks:
        for src, dst in sorted(map(tuple, chunk.tolist())):
            lists.setdefault(src, []).append(dst)
    return lists


def arrival_order_lists(chunks) -> dict[int, list[int]]:
    """Each vertex's list as a raw log delivers it: in arrival order."""
    lists: dict[int, list[int]] = {}
    for src, dst in np.concatenate(chunks).tolist():
        lists.setdefault(src, []).append(dst)
    return lists


def fringe_of(db, vertices) -> list[int]:
    return db.expand_fringe(vertices).tolist()


def assert_answers_alike(raw, comp, chunks):
    lists = record_order_lists(chunks)
    arrivals = arrival_order_lists(chunks)
    present = sorted(lists)
    probes = [present[0], present[len(present) // 2], present[-1], ABSENT]
    for v in probes:
        assert comp.get_adjacency(v).tolist() == lists.get(v, [])
        assert raw.get_adjacency(v).tolist() == arrivals.get(v, [])
    # A fringe is a multiset request and a set answer: duplicates cost nothing.
    fringe = [probes[1], probes[0], probes[1], ABSENT, probes[2], probes[0]]
    want = sorted(d for v in set(fringe) for d in lists.get(v, []))
    assert sorted(fringe_of(raw, fringe)) == sorted(fringe_of(comp, fringe)) == want
    assert raw.local_vertices().tolist() == comp.local_vertices().tolist() == present
    some = np.array(present[::7] + [ABSENT] + present[:3])
    for db in (raw, comp):
        for wanted in (some, None):
            batches = list(db.scan_adjacency(wanted))
            assert len(batches) == 1  # whole lists: one batch however many records
            (batch,) = batches
            assert np.all(np.diff(batch.vertices) > 0)  # ascending, no vertex twice
            asked = present if wanted is None else sorted(set(wanted.tolist()) & set(present))
            assert batch.vertices.tolist() == asked
            for v, neighbors in batch:
                assert neighbors.tolist() == (lists if db.compress else arrivals)[v]


@pytest.mark.parametrize("log", sorted(LOGS))
def test_raw_and_compressed_logs_answer_alike(log):
    chunks = LOGS[log]
    _, raw = build(False, chunks)
    _, comp = build(True, chunks)
    assert_answers_alike(raw, comp, chunks)
    assert raw.log_edges_scanned == comp.log_edges_scanned
    assert raw.stats == comp.stats
    assert len(comp._scan()) == len(chunks)


@pytest.mark.parametrize("log", sorted(LOGS))
def test_a_restored_log_answers_alike(log):
    chunks = LOGS[log]
    node, db = build(True, chunks, durable=True)
    db.flush()
    _, again = build(True, [], durable=True, node=node)
    assert census(again) == census(db) and again.num_edges_logged == db.num_edges_logged
    _, raw = build(False, chunks)
    assert_answers_alike(raw, again, chunks)


@pytest.mark.parametrize("log", sorted(LOGS))
def test_armed_board_publishes_the_records_and_serves_them(log):
    chunks = LOGS[log]
    _, raw = build(False, chunks)
    _, comp = build(True, chunks)
    boards = []
    for db in (raw, comp):
        db.scan_board = board = ScanBoard()
        board.arm(LOG_REPLAY)
        boards.append(board)
    reads = [db.device.stats.reads for db in (raw, comp)]
    assert_answers_alike(raw, comp, chunks)
    for db, board, before in zip((raw, comp), boards, reads):
        assert (board.passes, board.served) == (1, 6)  # seven log reads, one device pass
        assert db.device.stats.reads - before == 1  # every log here is one scan chunk
    published = [board.lookup(LOG_REPLAY, db.num_edges_logged) for db, board in zip((raw, comp), boards)]
    assert [type(record) for record in published[1]] == [AdjacencyBatch] * len(chunks)
    assert [len(record.neighbors) for record in published[1]] == [len(c) for c in chunks]
    # The raw log's one scan chunk is one batch: grouped by source, arrival order.
    (record,) = published[0]
    assert dict((v, a.tolist()) for v, a in record) == arrival_order_lists(chunks)
    # An ingest invalidates the publication: the next read replays the log.
    for db, board in zip((raw, comp), boards):
        db.store_edges(np.array([[ABSENT, 1]]))
        assert db.get_adjacency(ABSENT).tolist() == [1]
        assert board.passes == 2


# -- the whole system: overlay, compact(), a drain ----------------------------------


def deployment(compress):
    return MSSG(
        MSSGConfig(
            num_backends=2,
            num_frontends=1,
            backend="StreamDB",
            streaming=True,
            compress_adjacency=compress,
        )
    )


def test_streaming_deployments_answer_alike_through_compact_and_drain():
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 150, size=(2400, 2))
    edges = np.vstack([edges[edges[:, 0] != edges[:, 1]], edges[:30]])
    pairs = [(0, 149), (3, 77), (10, 11), (42, 139), (8, 120), (60, 2)]
    raw, comp = deployment(False), deployment(True)
    try:
        for m in (raw, comp):
            m.ingest(edges[:1200])
            m.ingest_stream(edges[1200:1800])

        def alike():
            for r, c in zip(raw.dbs, comp.dbs):
                vs = r.local_vertices()
                assert vs.tolist() == c.local_vertices().tolist()
                fringe = np.concatenate([vs[::3], vs[:5]])
                assert sorted(fringe_of(r, fringe)) == sorted(fringe_of(c, fringe))
                for v in vs[::11].tolist():
                    assert sorted(r.get_adjacency(v).tolist()) == sorted(c.get_adjacency(v).tolist())
                for db in (r, c):
                    # Base batch, then the overlay batch: no vertex twice in either.
                    for batch in db.scan_adjacency(vs[::2]):
                        assert len(np.unique(batch.vertices)) == len(batch.vertices)
                whole = [
                    {v: sorted(a.tolist()) for v, a in AdjacencyBatch.concat(db.scan_adjacency()).grouped()}
                    for db in (r, c)
                ]
                assert whole[0] == whole[1]

        alike()  # base log + overlay
        for m in (raw, comp):
            m.ingest_stream(edges[1800:])
            assert m.compact().batches_folded > 0
        alike()  # the folded batches are further log records
        assert all(len(db._scan()) >= 2 for db in comp.dbs)
        drains = [m.query_many(pairs, shared_scans=True) for m in (raw, comp)]
        assert [q.result for q in drains[0].queries] == [q.result for q in drains[1].queries]
        assert all(d.shared_passes > 0 and d.shared_served > 0 for d in drains)
        solo = [[m.query_bfs(s, d).result for s, d in pairs] for m in (raw, comp)]
        assert solo[0] == solo[1] == [q.result for q in drains[0].queries]
    finally:
        raw.close()
        comp.close()


# -- a damaged record header: no CRC frame stands between it and the parser -------


def doctored_log(index, **fields):
    """A compressed log of four flushed records, record ``index``'s header
    fields shifted by ``fields``; ``(db, a source of that record)``."""
    chunks = log_chunks([0, 1000, 2000, 3000], size=400)
    _, db = build(True, [])
    offsets = []
    for chunk in chunks:
        offsets.append(db._cbytes)
        db.store_edges(chunk)
        db.flush()
    victim = int(chunks[index][0, 0])
    assert len(db.get_adjacency(victim)) > 0
    off = offsets[index]
    header = dict(zip(("magic", "nedges", "nbytes"), _CREC_HEADER.unpack(db.device.read(off, 12))))
    header.update({k: header[k] + v for k, v in fields.items()})
    db.device.write(off, _CREC_HEADER.pack(*header.values()))
    return db, victim


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"nbytes": 1}, "decoded|promises"),
        ({"magic": 1}, "magic"),
        ({"nedges": -1}, "decoded"),
    ],
    ids=["nbytes", "magic", "nedges"],
)
@pytest.mark.parametrize("index", [1, 3], ids=["middle", "last"])
def test_doctored_record_header_is_corrupt(fields, message, index):
    db, victim = doctored_log(index, **fields)
    with pytest.raises(CorruptBlockError, match=message):
        db.get_adjacency(victim)


def test_short_payload_is_rejected_as_truncated():
    db, victim = doctored_log(1, nbytes=-1)
    with pytest.raises(GraphStorageException, match="truncated"):
        db.get_adjacency(victim)


# -- the replay memo: wall-clock only, every read and charge kept ---------------------


def count_parses(db) -> list[int]:
    """Wrap ``db._parse_record``; the returned list collects each call's offset."""
    offsets = []
    parse = db._parse_record

    def counted(buf, off):
        offsets.append(off)
        return parse(buf, off)

    db._parse_record = counted
    return offsets


def fresh_replay(db) -> list[AdjacencyBatch]:
    """What a scan builds with no memo to draw on."""
    db._memo = None
    return db._scan()


def assert_same_batches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("vertices", "offsets", "neighbors"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()


def charges(node, db) -> tuple:
    return (node.clock.now, *dataclasses.astuple(db.device.stats), db.log_edges_scanned)


@pytest.mark.parametrize("log", sorted(LOGS))
@pytest.mark.parametrize("compress", [False, True], ids=["raw", "compressed"])
def test_a_second_scan_parses_nothing_and_charges_what_the_first_did(compress, log):
    chunks = LOGS[log]
    fringe = sorted(record_order_lists(chunks))[::5] + [ABSENT]
    (node, db), (twin_node, twin) = build(compress, chunks), build(compress, chunks)
    for store in (db, twin):
        store.flush()
    parsed = count_parses(db)
    steps, answers, parses = [], [], []
    for _ in range(2):
        before, calls = charges(node, db), len(parsed)
        answers.append(fringe_of(db, fringe))
        steps.append(np.subtract(charges(node, db), before).tolist())
        parses.append(len(parsed) - calls)
    # Every record (raw: the one scan chunk), then nothing: the memo answered.
    assert parses == [len(chunks) if compress else 1, 0]
    assert answers[0] == answers[1]
    assert steps[1] == pytest.approx(steps[0], rel=1e-12)  # DiskStats holds float seconds
    assert steps[0][0] > 0 and steps[0][1] > 0  # the hit read the device and was charged
    replay = db._scan()
    assert db._scan() is replay and len(parsed) == parses[0]
    end = charges(node, db)
    # Bit for bit what a twin that parses on every scan pays and answers.
    for _ in range(2):
        assert fringe_of(twin, fringe) == answers[0]
        twin._memo = None
    twin._scan()
    twin._scan()
    assert charges(twin_node, twin) == end
    assert_same_batches(replay, fresh_replay(twin))


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "compressed"])
def test_an_append_parses_the_whole_log_again(compress):
    _, db = build(compress, LOGS["three records"])
    db._scan()
    parsed = count_parses(db)
    db.store_edges(log_chunks([300], size=_WRITE_BUFFER_EDGES)[0])
    db.flush()
    grown = db._scan()
    assert parsed[0] == 0  # new bytes are never served from the memo
    assert_same_batches(grown, fresh_replay(db))


def test_memoised_arrays_are_read_only():
    _, db = build(True, LOGS["one record"])
    (batch,) = db.scan_adjacency()
    for array in (batch.vertices, batch.offsets, batch.neighbors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    (record,) = db._scan()
    with pytest.raises(ValueError, match="read-only"):
        record.neighbors[0] = 1


def test_close_drops_the_memo():
    _, db = build(True, LOGS["one record"])
    db._scan()
    assert db._memo is not None
    db.close()
    assert db._memo is None


# Each fault arrives after a memoised scan; the next read must still meet it.


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "compressed"])
def test_a_corrupt_fault_after_a_memo_hit_still_raises(compress):
    node = SimNode(0, NodeSpec())
    db = StreamGraphDB(
        wrap_device(node.disk("log")),
        meta_device=wrap_device(node.disk("log_meta")),
        compress=compress,
        clock=node.clock,
        cpu=node.spec.cpu,
    )
    for chunk in LOGS["three records"]:
        db.store_edges(chunk)
    victim = int(LOGS["three records"][1][0, 0])
    want = db.get_adjacency(victim).tolist()
    assert db.get_adjacency(victim).tolist() == want  # served by the memo
    raw = node.disk("log")
    node.install_fault_plan(FaultPlan([DiskFault(node=0, kind="corrupt", after_ops=raw.ops)]))
    with pytest.raises(CorruptBlockError):
        db.get_adjacency(victim)


def test_an_overwritten_payload_byte_after_a_memo_hit_is_parsed_again():
    chunks = LOGS["three records"]
    _, db = build(True, chunks)
    db.flush()
    victim = int(chunks[0][0, 0])
    want = db.get_adjacency(victim).tolist()
    assert db.get_adjacency(victim).tolist() == want
    parsed = count_parses(db)
    # The last byte of the first record's payload gains a continuation bit:
    # its final varint now runs into the next record's header.
    _, _, nbytes = _CREC_HEADER.unpack(db.device.read(0, _CREC_HEADER.size))
    end = _CREC_HEADER.size + nbytes - 1
    db.device.write(end, bytes([db.device.read(end, 1)[0] | 0x80]))
    with pytest.raises(GraphStorageException):
        db.get_adjacency(victim)
    assert parsed[0] == 0  # parsed from the start, not served from the memo


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "compressed"])
def test_a_truncated_log_after_a_memo_hit_still_raises(compress):
    _, db = build(compress, LOGS["three records"])
    db.flush()
    victim = int(LOGS["three records"][2][0, 0])
    db.get_adjacency(victim)
    db.get_adjacency(victim)
    db.device.truncate(db._cbytes - 1)
    with pytest.raises(CorruptBlockError, match="truncated log"):
        db.get_adjacency(victim)


def test_a_memo_hit_still_checks_the_committed_edge_count():
    _, db = build(True, LOGS["one record"])
    db._scan()
    db._nedges += 1  # a root promising more edges than the unchanged bytes hold
    with pytest.raises(CorruptBlockError, match="decodes to"):
        db._scan()


# -- pinned goldens: the virtual model did not move ---------------------------------


def read_trace(node, db, chunks) -> dict:
    """A fixed sequence of every kind of read, and everything it charged."""
    present = sorted(record_order_lists(chunks))
    for v in (present[0], present[40], ABSENT):
        db.get_adjacency(v)
    fringe_of(db, present[90:150:3] + present[90:94])
    claimed = sum(len(b.neighbors) for b in db.scan_adjacency(np.array(present[100:140])))
    everything = sum(len(b.neighbors) for b in db.scan_adjacency())
    db.local_vertices()
    return {
        "clock": node.clock.now,
        "log_edges_scanned": db.log_edges_scanned,
        "stats": dataclasses.astuple(db.stats),
        "delivered": (claimed, everything),
        "bytes_read": db.device.stats.bytes_read,
    }


GOLDEN_LOGS = {"full": log_chunks([0, 13, 150])}

#: Produced by the compressed flat plan the record plan replaced (decode to ``(E,
#: 2)``, ``vstack``, ``isin``, stable re-sort), on the same logs; re-recorded
#: once when ``local_vertices`` moved from a log replay to the RAM census
#: (one replay fewer: clock, ``log_edges_scanned`` and bytes read only).
GOLDEN = {
    "full": {
        "clock": 0.09903074444444443,
        "log_edges_scanned": 154602,
        "stats": (25767, 1288, 27, 3),
        "delivered": (2196, 25767),
        "bytes_read": 314736,
    },
}


#: Produced by the raw flat plan (one ``(E, 2)`` array per replay, ``isin``
#: filters), on the same logs; re-recorded with ``GOLDEN``.
GOLDEN_RAW = {
    "full": {
        "clock": 0.12398862,
        "log_edges_scanned": 154602,
        "stats": (25767, 1288, 27, 3),
        "delivered": (2196, 25767),
        "bytes_read": 2473632,
    },
}


def traced(compress, name):
    chunks = GOLDEN_LOGS[name]
    node, db = build(compress, [])
    for chunk in chunks:
        db.store_edges(chunk)
        db.flush()
    return read_trace(node, db, chunks)


@pytest.mark.parametrize("name", sorted(GOLDEN_LOGS))
def test_compressed_plan_charges_what_the_flat_plan_charged(name):
    assert traced(True, name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_LOGS))
def test_raw_plan_charges_what_the_flat_plan_charged(name):
    assert traced(False, name) == GOLDEN_RAW[name]
