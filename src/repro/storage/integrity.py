"""End-to-end block integrity: CRC32-framed devices.

The fault model of the simulated cluster covers disks that *stop* (fail)
or *lag* (slow); this module covers disks that *lie* — bit rot flipping
stored bytes, or a torn write left behind by a mid-flush crash.  A
:class:`ChecksummedDevice` wraps a raw :class:`~repro.simcluster.disk.BlockDevice`
and stores data in fixed *frames*: ``FRAME_PAYLOAD`` (4096) payload bytes
followed by a 4-byte CRC32 trailer, physical stride ``FRAME_STRIDE``
(4100).  Every read verifies the CRC of every frame it touches and raises
:class:`~repro.util.errors.CorruptBlockError` (device, physical offset,
length) on a mismatch, so corruption can never propagate into BFS results
— it either surfaces as an error the failover path reroutes around, or it
never existed.  A vectored read verifies each distinct frame once per
call, however many of its requests share that frame.

Layout and semantics
--------------------
* Logical offset ``L`` maps to physical ``(L // 4096) * 4100 + L % 4096``.
  The map is monotone, so the raw device's sequential-vs-seek cost
  accounting keeps working: a logically sequential scan is a physically
  sequential scan.
* A frame whose payload *and* trailer are all zero is **never-written**
  (the sparse zero-fill contract of the backings): it reads back as zeros
  without a CRC check.  ``crc32(b"\\x00" * 4096) != 0``, so a legitimately
  written zero frame carries a non-zero trailer and is distinguishable.
  The one undetectable corruption is an entire frame *and* its trailer
  being zeroed at once — the classic lost-write hole every per-block CRC
  scheme shares.
* Writes not aligned to the 4096-byte frame grid read-modify-write the
  head/tail frames (reads verified, so corruption cannot be silently
  laundered into a freshly checksummed frame).
* Per-frame overhead: 4 bytes per 4096, i.e. ~0.1 % space and one CRC32
  per frame of I/O — the ablation benchmark pins the virtual-time cost at
  low single digits on the Figure 5.4 grDB workload.

``wrap_device`` is idempotent per raw device (the wrapper registers itself
as ``raw._integrity``), which is what lets the scrub service find every
checksummed device of a node by walking ``node._disks``.
"""

from __future__ import annotations

import zlib

from ..simcluster.disk import BlockDevice
from ..util.errors import CorruptBlockError

__all__ = ["FRAME_PAYLOAD", "FRAME_STRIDE", "ChecksummedDevice", "wrap_device"]

FRAME_PAYLOAD = 4096
FRAME_TRAILER = 4
FRAME_STRIDE = FRAME_PAYLOAD + FRAME_TRAILER

_ZERO_FRAME = b"\x00" * FRAME_STRIDE
_ZERO_PAYLOAD = _ZERO_FRAME[:FRAME_PAYLOAD]


def _crc(payload: bytes) -> bytes:
    return zlib.crc32(payload).to_bytes(4, "big")


class ChecksummedDevice:
    """A :class:`BlockDevice` facade adding per-frame CRC32 verification.

    Exposes the same ``read``/``readv``/``write``/``size``/``close`` API as
    the raw device (in *logical* byte offsets), so the storage engines are
    oblivious to the framing.  All virtual-time charging happens in the
    underlying device against the physical frame extents actually moved.
    """

    def __init__(self, raw: BlockDevice):
        self.raw = raw
        raw._integrity = self

    # -- passthroughs the engines occasionally touch -----------------------

    @property
    def name(self) -> str:
        return self.raw.name

    @property
    def stats(self):
        return self.raw.stats

    @property
    def clock(self):
        return self.raw.clock

    @property
    def failed(self) -> bool:
        return self.raw.failed

    # -- frame plumbing ---------------------------------------------------

    def _verify(self, frame_idx: int, frame: bytes) -> bytes:
        """Return the payload of one physical frame, checking its CRC."""
        payload = frame[:FRAME_PAYLOAD]
        trailer = frame[FRAME_PAYLOAD:FRAME_STRIDE]
        if len(frame) < FRAME_STRIDE and frame == _ZERO_FRAME[: len(frame)]:
            # Short all-zero tail: reading past the written extent.
            return _ZERO_PAYLOAD
        if payload == _ZERO_PAYLOAD and trailer in (b"", b"\x00\x00\x00\x00"):
            return payload  # never-written frame: sparse zero-fill
        if len(trailer) < FRAME_TRAILER or _crc(payload) != trailer:
            raise CorruptBlockError(
                self.raw.name,
                frame_idx * FRAME_STRIDE,
                FRAME_STRIDE,
                "CRC32 trailer mismatch",
            )
        return payload

    def _read_frames(self, first: int, count: int) -> bytes:
        """Read+verify ``count`` physical frames; returns joined payloads."""
        raw = self.raw.read(first * FRAME_STRIDE, count * FRAME_STRIDE)
        out = bytearray()
        for i in range(count):
            chunk = raw[i * FRAME_STRIDE : (i + 1) * FRAME_STRIDE]
            out += self._verify(first + i, chunk)
        return bytes(out)

    # -- BlockDevice API (logical offsets) ---------------------------------

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length in ChecksummedDevice.read")
        if nbytes == 0:
            self.raw.read(offset // FRAME_PAYLOAD * FRAME_STRIDE, 0)
            return b""
        first = offset // FRAME_PAYLOAD
        last = (offset + nbytes - 1) // FRAME_PAYLOAD
        payload = self._read_frames(first, last - first + 1)
        start = offset - first * FRAME_PAYLOAD
        return payload[start : start + nbytes]

    def readv(self, requests) -> list[bytes]:
        """Vectored read with per-frame verification.

        Each logical request is widened to its covering frame span; the raw
        device's ``readv`` coalesces adjacent spans exactly as it does for
        unframed requests, so the batched fringe I/O path keeps its
        one-seek-per-run accounting.  Requests sharing a frame overlap, so
        the raw device serves them from one backing read: each distinct
        frame is verified once per call, in request order (the first bad
        frame raises, as a per-request check would), and every request's
        payload is sliced from the verified frames.
        """
        phys = []
        spans = []
        for offset, nbytes in requests:
            if offset < 0 or nbytes < 0:
                raise ValueError("negative offset or length in ChecksummedDevice.readv")
            first = offset // FRAME_PAYLOAD
            last = (offset + max(nbytes, 1) - 1) // FRAME_PAYLOAD
            spans.append((first, last, offset, nbytes))
            phys.append((first * FRAME_STRIDE, (last - first + 1) * FRAME_STRIDE))
        raws = self.raw.readv(phys)
        verified: dict[int, bytes] = {}  # frame index -> payload
        out = []
        for raw, (first, last, offset, nbytes) in zip(raws, spans):
            payloads = []
            for i in range(last - first + 1):
                payload = verified.get(first + i)
                if payload is None:
                    frame = raw[i * FRAME_STRIDE : (i + 1) * FRAME_STRIDE]
                    payload = verified[first + i] = self._verify(first + i, frame)
                payloads.append(payload)
            start = offset - first * FRAME_PAYLOAD
            out.append(b"".join(payloads)[start : start + nbytes])
        return out

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0:
            raise ValueError("negative offset in ChecksummedDevice.write")
        if not data:
            return
        data = bytes(data)
        first = offset // FRAME_PAYLOAD
        last = (offset + len(data) - 1) // FRAME_PAYLOAD
        head_pad = offset - first * FRAME_PAYLOAD
        tail_end = (offset + len(data)) - last * FRAME_PAYLOAD  # bytes into last frame
        buf = bytearray((last - first + 1) * FRAME_PAYLOAD)
        if head_pad:
            buf[:FRAME_PAYLOAD] = self._read_frames(first, 1)
        if tail_end != FRAME_PAYLOAD and last != first:
            buf[-FRAME_PAYLOAD:] = self._read_frames(last, 1)
        elif tail_end != FRAME_PAYLOAD and not head_pad:
            buf[:FRAME_PAYLOAD] = self._read_frames(first, 1)
        buf[head_pad : head_pad + len(data)] = data
        framed = bytearray()
        for i in range(last - first + 1):
            payload = bytes(buf[i * FRAME_PAYLOAD : (i + 1) * FRAME_PAYLOAD])
            framed += payload
            framed += _crc(payload)
        self.raw.write(first * FRAME_STRIDE, bytes(framed))

    def size(self) -> int:
        """Logical bytes stored (physical size minus trailer overhead)."""
        phys = self.raw.size()
        frames, rem = divmod(phys, FRAME_STRIDE)
        return frames * FRAME_PAYLOAD + min(rem, FRAME_PAYLOAD)

    def truncate(self, logical_size: int) -> None:
        """Discard everything past ``logical_size`` (frame-aligned only)."""
        if logical_size % FRAME_PAYLOAD:
            raise ValueError("ChecksummedDevice.truncate requires a frame-aligned size")
        self.raw.truncate(logical_size // FRAME_PAYLOAD * FRAME_STRIDE)

    def close(self) -> None:
        self.raw.close()

    # -- scrub support ------------------------------------------------------

    def frame_count(self) -> int:
        phys = self.raw.size()
        return (phys + FRAME_STRIDE - 1) // FRAME_STRIDE

    def scrub_frames(self, chunk_frames: int = 64):
        """Verify every stored frame; yields the physical offset of each bad
        one.  Reads the device in large sequential chunks so the virtual
        time charged is the sequential-scan rate, and counts the scan in
        the raw device's stats like any other read."""
        total = self.frame_count()
        idx = 0
        while idx < total:
            take = min(chunk_frames, total - idx)
            raw = self.raw.read(idx * FRAME_STRIDE, take * FRAME_STRIDE)
            for i in range(take):
                chunk = raw[i * FRAME_STRIDE : (i + 1) * FRAME_STRIDE]
                try:
                    self._verify(idx + i, chunk)
                except CorruptBlockError:
                    yield (idx + i) * FRAME_STRIDE
            idx += take


def wrap_device(raw: BlockDevice) -> ChecksummedDevice:
    """Return the (one) integrity wrapper of ``raw``, creating it if needed."""
    existing = getattr(raw, "_integrity", None)
    if existing is not None:
        return existing
    return ChecksummedDevice(raw)
