"""End-to-end block integrity: checksums, corruption faults, read-repair,
scrub, and crash recovery.

The threat model here is disks that *lie* rather than disks that stop:
bit rot flips stored bytes in place, and a power loss mid-flush leaves a
torn write behind.  These tests drive the whole chain — the CRC32 frame
layer, the ``corrupt``/``crash`` fault kinds, BFS rerouting around a
``CorruptBlockError``, the façade's read-repair and scrub, and the grDB
WAL / StreamDB commit-record crash recovery.
"""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.framework import ScrubReport
from repro.graphdb import GrDB, GrDBFormat
from repro.graphdb.registry import BACKENDS, IN_MEMORY_BACKENDS
from repro.graphdb.stream_db import StreamGraphDB
from repro.graphgen import pubmed_like
from repro.simcluster import (
    BlockDevice,
    DiskFault,
    FaultPlan,
    NodeSpec,
    SimCluster,
    SimNode,
)
from repro.storage import integrity
from repro.storage.integrity import (
    FRAME_PAYLOAD,
    FRAME_STRIDE,
    ChecksummedDevice,
    wrap_device,
)
from repro.util import (
    ConfigError,
    CorruptBlockError,
    DeviceFailedError,
    GraphStorageException,
)

from .helpers import census, image_census, make_store


class TestChecksummedDevice:
    def _dev(self):
        return ChecksummedDevice(BlockDevice())

    def test_roundtrip_aligned(self):
        dev = self._dev()
        data = bytes(range(256)) * 32  # two full frames
        dev.write(0, data)
        assert dev.read(0, len(data)) == data
        assert dev.size() == len(data)

    def test_roundtrip_unaligned(self):
        dev = self._dev()
        dev.write(0, b"a" * FRAME_PAYLOAD)
        dev.write(100, b"hello")  # RMW inside frame 0
        dev.write(FRAME_PAYLOAD - 3, b"spans-two-frames")  # RMW across frames
        got = dev.read(0, 2 * FRAME_PAYLOAD)
        want = bytearray(b"a" * FRAME_PAYLOAD + b"\x00" * FRAME_PAYLOAD)
        want[100:105] = b"hello"
        want[FRAME_PAYLOAD - 3 : FRAME_PAYLOAD - 3 + 16] = b"spans-two-frames"
        assert got == bytes(want)

    def test_logical_offsets_hide_trailers(self):
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, b"x" * (FRAME_PAYLOAD + 10))
        # Physically two frames with trailers; logically contiguous bytes.
        assert raw.size() == 2 * FRAME_STRIDE
        assert dev.read(FRAME_PAYLOAD, 10) == b"x" * 10

    def test_detects_payload_corruption(self):
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, b"y" * FRAME_PAYLOAD)
        raw.backing.write(50, b"\x00")  # silent bit flip under the CRC
        with pytest.raises(CorruptBlockError) as e:
            dev.read(0, FRAME_PAYLOAD)
        assert e.value.device == raw.name
        assert e.value.offset == 0
        assert e.value.length == FRAME_STRIDE

    def test_detects_trailer_corruption(self):
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, b"y" * FRAME_PAYLOAD)
        raw.backing.write(FRAME_PAYLOAD, b"\xde\xad\xbe\xef")
        with pytest.raises(CorruptBlockError):
            dev.read(0, 1)

    def test_never_written_frames_read_as_zeros(self):
        dev = self._dev()
        dev.write(3 * FRAME_PAYLOAD, b"far")  # frames 0-2 never written
        assert dev.read(0, FRAME_PAYLOAD) == b"\x00" * FRAME_PAYLOAD
        assert dev.read(3 * FRAME_PAYLOAD, 3) == b"far"

    def test_written_zero_frame_is_distinguishable(self):
        # A legitimately written all-zero frame carries a non-zero CRC, so
        # zeroing the payload of a written frame IS detectable...
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, b"\x00" * FRAME_PAYLOAD)
        assert dev.read(0, FRAME_PAYLOAD) == b"\x00" * FRAME_PAYLOAD
        dev.write(0, b"data" * (FRAME_PAYLOAD // 4))
        raw.backing.write(0, b"\x00" * FRAME_PAYLOAD)  # zero payload only
        with pytest.raises(CorruptBlockError):
            dev.read(0, 1)

    def test_readv_verifies_every_frame(self):
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, b"A" * FRAME_PAYLOAD * 3)
        got = dev.readv([(10, 20), (FRAME_PAYLOAD + 5, 8)])
        assert got == [b"A" * 20, b"A" * 8]
        raw.backing.write(FRAME_STRIDE + 7, b"\xff")  # damage frame 1
        assert dev.readv([(10, 20)]) == [b"A" * 20]  # frame 0 still clean
        with pytest.raises(CorruptBlockError):
            dev.readv([(FRAME_PAYLOAD + 5, 8)])

    def test_readv_verifies_each_frame_once(self, monkeypatch):
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, bytes(range(256)) * 48)  # three frames
        blocks = [(i * 512, 512) for i in range(8)]  # the eight blocks of frame 0
        want = [dev.read(offset, nbytes) for offset, nbytes in blocks]
        crcs = []
        crc = integrity._crc
        monkeypatch.setattr(integrity, "_crc", lambda payload: crcs.append(1) or crc(payload))
        assert dev.readv(blocks) == want
        assert len(crcs) == 1
        # A request spanning frames 0 and 1 beside blocks of both: two CRCs.
        spans = [(FRAME_PAYLOAD - 100, 300), (0, 512), (FRAME_PAYLOAD + 512, 512)]
        want = [dev.read(offset, nbytes) for offset, nbytes in spans]
        crcs.clear()
        assert dev.readv(spans) == want
        assert len(crcs) == 2

    @pytest.mark.parametrize("damaged", [(1,), (1, 2)])
    def test_readv_raises_at_the_first_bad_frame_in_request_order(self, damaged):
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, b"B" * FRAME_PAYLOAD * 3)
        for frame in damaged:
            raw.backing.write(frame * FRAME_STRIDE + 9, b"\x00")
        # Frame 2's blocks first, then frame 1's, then frame 0's: the first
        # bad frame met in that order is the one a per-request check names.
        requests = [(f * FRAME_PAYLOAD + b * 512, 512) for f in (2, 1, 0) for b in range(8)]
        with pytest.raises(CorruptBlockError) as err:
            dev.readv(requests)
        assert err.value.offset == max(damaged) * FRAME_STRIDE

    def test_truncate_requires_frame_alignment(self):
        dev = self._dev()
        dev.write(0, b"t" * 2 * FRAME_PAYLOAD)
        with pytest.raises(ValueError):
            dev.truncate(100)
        dev.truncate(FRAME_PAYLOAD)
        assert dev.size() == FRAME_PAYLOAD

    def test_scrub_frames_reports_bad_offsets(self):
        raw = BlockDevice()
        dev = ChecksummedDevice(raw)
        dev.write(0, b"s" * 4 * FRAME_PAYLOAD)
        raw.backing.write(2 * FRAME_STRIDE + 1, b"\x99")  # frame 2
        assert dev.frame_count() == 4
        assert list(dev.scrub_frames()) == [2 * FRAME_STRIDE]

    def test_wrap_device_idempotent(self):
        raw = BlockDevice()
        w1 = wrap_device(raw)
        w2 = wrap_device(raw)
        assert w1 is w2
        assert raw._integrity is w1


class TestCorruptAndCrashFaults:
    def test_corrupt_fault_flips_scoped_bytes_once(self):
        plan = FaultPlan(
            [DiskFault(node=0, kind="corrupt", after_ops=1, offset=4, length=2)]
        )
        dev = SimNode(0, NodeSpec(), fault_plan=plan).disk()
        dev.write(0, bytes(range(16)))
        got = dev.read(0, 16)  # trigger fires on this op
        want = bytearray(range(16))
        want[4] ^= 0xFF
        want[5] ^= 0xFF
        assert got == bytes(want)
        assert dev.stats.corrupted_bytes == 2
        assert not dev.failed  # the device keeps serving — it just lies
        assert dev.read(0, 16) == bytes(want)  # one-shot: no further damage
        assert dev.stats.corrupted_bytes == 2

    def test_corrupt_fault_unscoped_covers_extent(self):
        plan = FaultPlan([DiskFault(node=0, kind="corrupt", after_ops=1)])
        dev = SimNode(0, NodeSpec(), fault_plan=plan).disk()
        dev.write(0, b"\x00" * 64)
        assert dev.read(0, 64) == b"\xff" * 64
        assert dev.stats.corrupted_bytes == 64

    def test_crash_fault_tears_write_and_sticks(self):
        plan = FaultPlan([DiskFault(node=0, kind="crash", after_ops=1)])
        dev = SimNode(0, NodeSpec(), fault_plan=plan).disk()
        dev.write(0, b"durable!")
        with pytest.raises(DeviceFailedError, match="mid-write"):
            dev.write(8, b"ABCDEFGH")
        assert dev.failed
        assert dev.stats.torn_writes == 1
        dev.revive()
        # Half the payload persisted; the earlier write is intact.
        assert dev.read(0, 16) == b"durable!ABCD\x00\x00\x00\x00"

    def test_crash_fault_on_read_fails_without_tearing(self):
        plan = FaultPlan([DiskFault(node=0, kind="crash", at_time=0.0)])
        dev = SimNode(0, NodeSpec(), fault_plan=plan).disk()
        with pytest.raises(DeviceFailedError):
            dev.read(0, 8)
        assert dev.failed
        assert dev.stats.torn_writes == 0

    def test_fault_scope_validation(self):
        with pytest.raises(ConfigError):
            DiskFault(node=0, at_time=0.0, offset=10)  # scope on a kill
        with pytest.raises(ConfigError):
            DiskFault(node=0, kind="corrupt", at_time=0.0, offset=-1)
        with pytest.raises(ConfigError):
            DiskFault(node=0, kind="corrupt", at_time=0.0, length=0)

    def test_plan_validation_at_install(self):
        bad_node = FaultPlan([DiskFault(node=9, at_time=0.0)])
        with pytest.raises(ConfigError, match="ranks 0..1"):
            SimCluster(nranks=2, fault_plan=bad_node)
        cluster = SimCluster(nranks=2)
        with pytest.raises(ConfigError, match="ranks 0..1"):
            cluster.install_fault_plan(bad_node)
        # An unknown kind is rejected at construction *and* at install
        # (plans can be built from untyped config data via __new__-style
        # paths; validate() must not trust __post_init__ ran).
        sneaky = FaultPlan([DiskFault(node=0, at_time=0.0)])
        object.__setattr__(sneaky.faults[0], "kind", "melt")
        with pytest.raises(ConfigError, match="fault kind"):
            cluster.install_fault_plan(sneaky)


class TestShortReadGuards:
    """Satellite: silently zero-padded short reads must raise, not fabricate."""

    def test_grdb_written_block_past_extent(self):
        fmt = GrDBFormat(
            capacities=(2, 4), block_sizes=(256, 256), max_file_bytes=4096
        )
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=fmt, clock=node.clock, cache_blocks=0)
        db.store_edges([(v, v + 10) for v in range(8)])
        db.flush()
        # Chop the level-0 file: its written blocks now extend past the end.
        node.disk("grdb_L0_F0").truncate(16)
        with pytest.raises(CorruptBlockError, match="truncated"):
            db.get_adjacency(7)

    def test_grdb_restore_detects_truncated_level_file(self):
        fmt = GrDBFormat(
            capacities=(2, 4), block_sizes=(256, 256), max_file_bytes=4096
        )
        node = SimNode(0, NodeSpec())
        db = GrDB(node.disk, fmt=fmt, clock=node.clock)
        db.store_edges([(v, v + 10) for v in range(8)])
        db.flush()
        node.disk("grdb_L0_F0").truncate(16)
        with pytest.raises(GraphStorageException, match="holds only 16 bytes"):
            GrDB(node.disk, fmt=fmt, clock=node.clock)

    def test_streamdb_truncated_log(self):
        dev = BlockDevice()
        db = StreamGraphDB(dev)
        db.store_edges(np.array([(0, 1), (0, 2), (1, 3)], dtype=np.int64))
        db.flush()
        dev.truncate(16)  # drop two committed edges
        with pytest.raises(CorruptBlockError, match="truncated log"):
            db.get_adjacency(0)


FMT = GrDBFormat(
    capacities=(2, 4, 16, 64),
    block_sizes=(256, 256, 256, 1024),
    max_file_bytes=4096,
)


def _ingested_grdb(node, integrity=True, cache_blocks=64):
    db = make_store(
        "grDB",
        node,
        grdb_format=FMT,
        cache_blocks=cache_blocks,
        checksums=integrity,
    )
    rng = np.random.default_rng(11)
    edges = np.column_stack(
        [rng.integers(0, 30, 200), rng.integers(0, 400, 200)]
    ).astype(np.int64)
    db.store_edges(edges)
    return db, edges


#: More operations than one flush makes on any single device.
_MAX_OPS_PER_FLUSH = 64


def _flush_under_crash(node, db, crash_after_ops, device=None, kind="crash"):
    """``db.flush()`` under one fault (module helper of the crash rows):
    node-wide after ``crash_after_ops`` operations, or on ``device`` after
    that many more of its own.  A ``crash`` tears the write it hits (half
    of it lands); a ``fail`` stops before it.  Revives every device
    afterwards; returns whether the flush completed."""
    if device is not None:
        dev = node._disks.get(device)
        crash_after_ops += dev.ops if dev is not None else 0
    node.install_fault_plan(
        FaultPlan([DiskFault(node=0, device=device, kind=kind, after_ops=crash_after_ops)])
    )
    try:
        db.flush()
        flushed = True
    except DeviceFailedError:
        flushed = False
    node.install_fault_plan(None)
    for dev in node._disks.values():
        dev.revive()
    return flushed


def _flush_devices(setup) -> list[str]:
    """The devices an unfaulted ``db.flush()`` reads or writes, where
    ``setup(node)`` returns ``db`` with that flush pending."""
    node = SimNode(0, NodeSpec())
    db = setup(node)
    before = {name: dev.ops for name, dev in node._disks.items()}
    db.flush()
    return sorted(n for n, dev in node._disks.items() if dev.ops != before.get(n, 0))


def _second_grdb_flush(node):
    db, _ = _ingested_grdb(node)
    db.flush()
    db.store_edges([(v, 9000 + v) for v in range(30)])
    return db


def _second_streamdb_flush(node):
    db = make_store("StreamDB", node, checksums=True)
    db.store_edges(np.array([(0, v) for v in range(1, 101)], dtype=np.int64))
    db.flush()  # commit #1: an unaligned tail (1600 bytes)
    db.store_edges(np.array([(0, 500)], dtype=np.int64))
    return db


def _assert_scrub_clean(node):
    for dev in node._disks.values():
        wrapper = getattr(dev, "_integrity", None)
        if wrapper is not None:
            assert list(wrapper.scrub_frames()) == []


class TestGrDBCrashRecovery:
    def _adjacency_image(self, db):
        return {v: sorted(db.get_adjacency(v).tolist()) for v in range(30)}

    def test_reopen_after_clean_flush(self):
        node = SimNode(0, NodeSpec())
        db, _ = _ingested_grdb(node)
        db.flush()
        want = self._adjacency_image(db)
        db2 = make_store("grDB", node, grdb_format=FMT, checksums=True)
        assert census(db2) == census(db)
        assert self._adjacency_image(db2) == want

    def _crash_mid_flush(self, crash_after_ops, device=None, kind="crash"):
        """Ingest + flush + more edges, then crash during the second flush:
        node-wide after ``crash_after_ops`` further operations of any
        device, or on ``device`` alone after that many of its own.
        Returns (node, published adjacency image, whether the flush
        completed, the database) — the recovered database must still serve
        the published image or the flushed one."""
        node = SimNode(0, NodeSpec())
        db, _ = _ingested_grdb(node)
        db.flush()
        published = self._adjacency_image(db)
        db.store_edges([(v, 9000 + v) for v in range(30)])
        flushed = _flush_under_crash(node, db, crash_after_ops, device, kind)
        return node, published, flushed, db

    def _check_recovery(self, node, published, flushed, old):
        db2 = make_store("grDB", node, grdb_format=FMT, checksums=True)
        got = self._adjacency_image(db2)
        assert census(db2) == image_census(got)
        if flushed:
            assert census(db2) == census(old)
            # The crash hit after the flush completed (or never fired):
            # the second batch is part of the published image now.
            assert got == self._adjacency_image(old)
        else:
            # All-or-nothing: either the WAL committed and recovery rolled
            # the whole second flush forward, or it discards the torn flush
            # and the first published image stands unchanged.
            second = {
                v: sorted(published[v] + [9000 + v]) for v in published
            }
            assert got in (published, second)
        # The commit token counts the flushes whose image was adopted.
        assert db2.commit_token() == (1 if got == published else 2)
        # After recovery, a scrub of the node's devices finds zero corrupt
        # frames: the WAL replay healed (or discarded) every torn frame.
        _assert_scrub_clean(node)

    @pytest.mark.parametrize("crash_after_ops", [0, 1, 2, 3, 5, 8, 13, 40])
    def test_recovery_adopts_published_image(self, crash_after_ops):
        self._check_recovery(*self._crash_mid_flush(crash_after_ops))

    @pytest.mark.parametrize("kind", ["fail", "crash"])
    @pytest.mark.parametrize("device", _flush_devices(_second_grdb_flush))
    def test_a_crash_at_each_operation_of_one_device(self, device, kind):
        """Stop or tear the second flush at each operation it makes on
        ``device`` (the level files, the WAL, the superblock), one after
        another until the flush completes unfaulted."""
        for k in range(_MAX_OPS_PER_FLUSH):
            node, published, flushed, old = self._crash_mid_flush(k, device, kind)
            self._check_recovery(node, published, flushed, old)
            if flushed:
                break
        else:
            pytest.fail(f"the flush still crashes after {k + 1} operations of {device}")

    def test_recovered_instance_can_keep_ingesting(self):
        node, _, _, _ = self._crash_mid_flush(2)
        db2 = make_store("grDB", node, grdb_format=FMT, checksums=True)
        db2.store_edges([(0, 77777)])
        assert 77777 in db2.get_adjacency(0).tolist()
        db2.flush()
        db3 = make_store("grDB", node, grdb_format=FMT, checksums=True)
        assert 77777 in db3.get_adjacency(0).tolist()


class TestStreamDBCrashRecovery:
    def _mk(self, node):
        return make_store("StreamDB", node, checksums=True)

    def test_durable_commit_and_reopen(self):
        node = SimNode(0, NodeSpec())
        db = self._mk(node)
        edges = np.array([(0, 1), (0, 2), (1, 3)], dtype=np.int64)
        db.store_edges(edges)
        db.flush()
        db2 = self._mk(node)
        assert census(db2) == census(db) == ([0, 1], [2, 1])
        assert sorted(db2.get_adjacency(0).tolist()) == [1, 2]

    @pytest.mark.parametrize("crash_after_ops", [0, 1, 2, 3, 4, 6])
    def test_crash_mid_flush_keeps_committed_edges(self, crash_after_ops):
        self._crash_and_check(crash_after_ops)

    @pytest.mark.parametrize("kind", ["fail", "crash"])
    @pytest.mark.parametrize("device", _flush_devices(_second_streamdb_flush))
    def test_a_crash_at_each_operation_of_one_device(self, device, kind):
        """Stop or tear the second flush at each operation it makes on
        ``device`` (the log: tail read and append; the meta device: guard
        payload and both roots), one after another until it completes."""
        for k in range(_MAX_OPS_PER_FLUSH):
            if self._crash_and_check(k, device, kind):
                break
        else:
            pytest.fail(f"the flush still crashes after {k + 1} operations of {device}")

    def _crash_and_check(self, crash_after_ops, device=None, kind="crash") -> bool:
        node = SimNode(0, NodeSpec())
        db = _second_streamdb_flush(node)
        flushed = _flush_under_crash(node, db, crash_after_ops, device, kind)
        db2 = self._mk(node)
        got = sorted(db2.get_adjacency(0).tolist())
        assert census(db2) == image_census({0: got})
        if flushed:
            assert census(db2) == census(db)
            assert got == list(range(1, 101)) + [500]
        else:
            # Commit #1 must survive even though the torn append may have
            # destroyed the committed tail frame (the guard restores it).
            assert got in (list(range(1, 101)), list(range(1, 101)) + [500])
        # The commit token counts flushes that landed, never guard roots.
        assert db2.commit_token() == (2 if got[-1] == 500 else 1)
        _assert_scrub_clean(node)
        return flushed

    def test_unchecksummed_streamdb_has_no_meta_device(self):
        node = SimNode(0, NodeSpec())
        db = make_store("StreamDB", node, checksums=False)
        assert db.meta_device is None
        assert "stream_meta" not in node._disks


# --- End-to-end: the acceptance scenario of the integrity PR.  Graph and
# query mirror the fault-tolerance suite; cache_blocks is tiny so queries
# actually touch the (checksummed) devices.
_EDGES = pubmed_like(600, seed=7)
_SRC, _DST = 3, 450


def _deploy(backend, replication=2, checksums=True, cache_blocks=4):
    return MSSG(
        MSSGConfig(
            num_backends=3,
            num_frontends=1,
            backend=backend,
            replication=replication,
            checksums=checksums,
            cache_blocks=cache_blocks,
        )
    )


def _corrupt_plan(q):
    # Rot every stored byte of back-end q (node 1 + q) at the start of the
    # next device operation window.
    return FaultPlan([DiskFault(node=1 + q, kind="corrupt", at_time=0.0)])


class TestEndToEndReadRepair:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_replica_answers_match_healthy(self, backend):
        with _deploy(backend) as healthy:
            healthy.ingest(_EDGES)
            want = healthy.query_bfs(_SRC, _DST)
        assert want.result is not None
        with _deploy(backend) as mssg:
            mssg.ingest(_EDGES)
            mssg.set_fault_plan(_corrupt_plan(0))
            got = mssg.query_bfs(_SRC, _DST)
            assert got.result == want.result
            assert not got.partial
            if backend in IN_MEMORY_BACKENDS:
                # No devices: the fault has nothing to rot.
                assert got.corrupt_backends == ()
            else:
                assert got.corrupt_backends == (0,)
                assert got.repairs >= 1
                # Read-repair healed the backend: a follow-up scrub is clean
                # and the same query runs corruption-free.
                sr = mssg.scrub()
                assert sr.corrupt_frames == 0
                again = mssg.query_bfs(_SRC, _DST)
                assert again.result == want.result
                assert again.corrupt_backends == ()

    def test_unreplicated_corruption_degrades_to_partial(self):
        # Cache disabled so the query must read the rotted device bytes:
        # with compressed adjacency (the default) this tiny graph is
        # otherwise fully cache-resident and the rot goes unnoticed.
        with _deploy("grDB", replication=1, cache_blocks=0) as mssg:
            mssg.ingest(_EDGES)
            mssg.set_fault_plan(_corrupt_plan(0))
            report = mssg.query_bfs(_SRC, _DST)
            assert report.partial
            assert report.corrupt_backends == (0,)
            assert report.repairs == 0  # nowhere to repair from

    def test_scrub_detects_and_repairs_idle_corruption(self):
        # Corruption that no query has touched yet: only the scrub finds it.
        with _deploy("grDB") as mssg:
            mssg.ingest(_EDGES)
            mssg.set_fault_plan(_corrupt_plan(1))
            # Fire the fault with a harmless read on each of back-end 1's
            # devices (the trigger is per device).
            node = mssg.cluster.nodes[2]
            for dev in list(node._disks.values()):
                dev.read(0, 1)
            mssg.set_fault_plan(None)
            sr = mssg.scrub()
            assert isinstance(sr, ScrubReport)
            assert sr.frames_scanned > 0
            assert sr.corrupt_backends == (1,)
            assert sr.corrupt_frames > 0
            assert sr.repaired_frames == sr.corrupt_frames
            assert sr.unrecoverable_frames == 0
            assert sr.seconds > 0
            assert mssg.scrub().corrupt_frames == 0  # second pass: clean
            want = None
            with _deploy("grDB") as ref:
                ref.ingest(_EDGES)
                want = ref.query_bfs(_SRC, _DST).result
            assert mssg.query_bfs(_SRC, _DST).result == want

    def test_scrub_healthy_is_clean_and_counts_frames(self):
        with _deploy("grDB") as mssg:
            mssg.ingest(_EDGES)
            sr = mssg.scrub()
            assert sr.corrupt_frames == 0
            assert sr.repaired_frames == 0
            assert sr.frames_scanned > 0

    def test_unreplicated_scrub_reports_unrecoverable(self):
        with _deploy("grDB", replication=1) as mssg:
            mssg.ingest(_EDGES)
            mssg.set_fault_plan(_corrupt_plan(0))
            node = mssg.cluster.nodes[1]
            for dev in list(node._disks.values()):
                dev.read(0, 1)
            mssg.set_fault_plan(None)
            sr = mssg.scrub()
            assert sr.corrupt_frames > 0
            assert sr.repaired_frames == 0
            assert sr.unrecoverable_frames == sr.corrupt_frames

    def test_repair_updates_node_counter(self):
        from repro.experiments import fault_summary

        with _deploy("grDB") as mssg:
            mssg.ingest(_EDGES)
            mssg.set_fault_plan(_corrupt_plan(0))
            report = mssg.query_bfs(_SRC, _DST)
            assert report.repairs >= 1
            summary = fault_summary(mssg)
            assert summary.repaired_frames == report.repairs
            assert summary.corrupted_bytes > 0

    def test_checksums_off_leaves_devices_raw(self):
        with _deploy("grDB", checksums=False) as mssg:
            mssg.ingest(_EDGES)
            for node in mssg.cluster.nodes:
                for dev in node._disks.values():
                    assert not hasattr(dev, "_integrity")
            sr = mssg.scrub()
            assert sr.frames_scanned == 0  # nothing checksummed to verify

    def test_read_repair_whose_source_dies_mid_copy_answers_exact_or_partial(
        self, monkeypatch
    ):
        # Back-end 1 is corrupt; the query reads around it and read-repair
        # wipes it to rebuild.  Back-end 2 — the only clean holder of
        # partition 1 — is killed right after the scan, so its copy never
        # lands: back-end 1 must leave partition 1's chain, not serve it empty.
        pairs = [(s, d) for s in (1, 4, 7, 10, 13) for d in range(2, 300, 27)]
        edges = pubmed_like(300, seed=7)
        with _deploy("grDB", cache_blocks=0) as ref:
            ref.ingest(edges)
            want = [ref.query_bfs(s, d).result for s, d in pairs]
        with _deploy("grDB", cache_blocks=0) as mssg:
            mssg.ingest(edges)
            mssg.set_fault_plan(_corrupt_plan(1))
            for dev in list(mssg.cluster.nodes[2]._disks.values()):
                dev.read(0, 1)
            mssg.set_fault_plan(None)
            scan = MSSG._count_corrupt_frames

            def scan_then_kill(self, q):
                counts = scan(self, q)
                self.cluster.install_fault_plan(
                    FaultPlan([DiskFault(node=3, kind="fail", at_time=0.0)])
                )
                return counts

            monkeypatch.setattr(MSSG, "_count_corrupt_frames", scan_then_kill)
            first = mssg.query_bfs(*pairs[0])
            monkeypatch.undo()
            assert first.corrupt_backends == (1,)
            assert first.result == want[0]
            assert first.repairs == 0  # the rebuild did not land whole
            assert 2 in mssg.queries.known_dead
            assert 1 not in mssg.declusterer.replica_chain(1)
            for (s, d), w in zip(pairs, want):
                got = mssg.query_bfs(s, d)
                assert got.result == w or got.partial, (s, d)

    def test_scrub_survives_a_backend_dying_during_its_scan(self):
        for repair in (False, True):
            with _deploy("grDB") as mssg:
                mssg.ingest(_EDGES)
                want = mssg.query_bfs(_SRC, _DST).result
                mssg.set_fault_plan(FaultPlan.kill_node(3, at_time=0.0))
                sr = mssg.scrub(repair=repair)
                assert sr.corrupt_frames == 0
                assert sr.frames_scanned > 0
                assert mssg.dead_backends() == [2]
                assert mssg.queries.known_dead == {2}
                got = mssg.query_bfs(_SRC, _DST)
                assert got.result == want and not got.partial
