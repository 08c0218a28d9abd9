"""Simulated block storage: real bytes, virtual time.

A :class:`BlockDevice` stores genuine bytes (in memory or in a real file on
the host filesystem) while charging its owning node's :class:`VirtualClock`
from a :class:`~repro.simcluster.costmodel.DiskProfile`.  Sequential access
(a request starting exactly where the previous one ended) skips the seek
charge, so append-only engines like StreamDB come out fast and random
sub-block access (grDB without its cache) comes out seek-bound — the
asymmetry that drives every out-of-core result in the paper.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

from ..util.errors import DeviceFailedError
from .costmodel import DiskProfile
from .virtualtime import VirtualClock

__all__ = ["MemoryBacking", "FileBacking", "BlockDevice", "DiskStats", "OSPageCache"]


class OSPageCache:
    """A node-wide OS page cache (time model only).

    Shared by every :class:`BlockDevice` of a node, mirroring how one
    kernel page cache fronts all files on a host.  Keys are
    ``(device name, page number)``; capacity is in pages.
    """

    def __init__(self, capacity_pages: int):
        self.capacity = max(1, int(capacity_pages))
        self.pages: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, key: tuple[str, int]) -> bool:
        """Record an access; returns True on hit."""
        if key in self.pages:
            self.pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self.insert(key)
        return False

    def insert(self, key: tuple[str, int]) -> None:
        self.pages[key] = None
        if len(self.pages) > self.capacity:
            self.pages.popitem(last=False)


class MemoryBacking:
    """Byte storage in an auto-growing in-process buffer.

    Used by tests and by benchmarks that model the disk purely through the
    cost model (which is what determines virtual time either way).
    """

    def __init__(self):
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def read(self, offset: int, nbytes: int) -> bytes:
        end = offset + nbytes
        if end > len(self._buf):
            # Reads past the written extent return zero-fill, like a sparse file.
            data = bytes(self._buf[offset : len(self._buf)])
            return data + b"\x00" * (nbytes - len(data))
        return bytes(self._buf[offset:end])

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return  # zero-length writes do not extend the file
        end = offset + len(data)
        if end > len(self._buf):
            self._buf.extend(b"\x00" * (end - len(self._buf)))
        self._buf[offset:end] = data

    def size(self) -> int:
        return len(self._buf)

    def truncate(self, nbytes: int) -> None:
        if nbytes < len(self._buf):
            del self._buf[nbytes:]

    def close(self) -> None:
        pass


class FileBacking:
    """Byte storage in a real file (sparse-friendly, pread/pwrite style)."""

    def __init__(self, path: str | os.PathLike):
        self._path = os.fspath(path)
        os.makedirs(os.path.dirname(self._path) or ".", exist_ok=True)
        # "r+b" honors seek positions for writes; create the file first if new.
        if not os.path.exists(self._path):
            open(self._path, "xb").close()
        self._f = open(self._path, "r+b")

    @property
    def path(self) -> str:
        return self._path

    def read(self, offset: int, nbytes: int) -> bytes:
        self._f.seek(offset)
        data = self._f.read(nbytes)
        if len(data) < nbytes:
            data += b"\x00" * (nbytes - len(data))
        return data

    def write(self, offset: int, data: bytes) -> None:
        self._f.seek(offset)
        self._f.write(data)

    def size(self) -> int:
        self._f.seek(0, os.SEEK_END)
        return self._f.tell()

    def truncate(self, nbytes: int) -> None:
        if nbytes < self.size():
            self._f.truncate(nbytes)

    def close(self) -> None:
        self._f.close()


@dataclass
class DiskStats:
    """Operation counters for one device, used by tests and reports."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    busy_seconds: float = 0.0
    failures: int = 0  # injected faults that fired on this device
    #: Bytes damaged in place by injected ``corrupt`` faults (bit rot).
    corrupted_bytes: int = 0
    #: Writes torn short by an injected ``crash`` fault.
    torn_writes: int = 0

    def snapshot(self) -> "DiskStats":
        return DiskStats(**vars(self))


class BlockDevice:
    """A disk with real contents and a virtual-time cost model.

    Parameters
    ----------
    backing:
        Where bytes live (:class:`MemoryBacking` or :class:`FileBacking`).
    profile:
        Seek/bandwidth cost model; ``None`` disables time charging (the
        device still stores data and counts operations).
    clock:
        The owning node's clock.  A private clock is created when omitted so
        engines can run standalone and still report virtual busy time.
    """

    def __init__(
        self,
        backing: MemoryBacking | FileBacking | None = None,
        profile: DiskProfile | None = None,
        clock: VirtualClock | None = None,
        name: str = "disk0",
        os_cache: OSPageCache | None = None,
    ):
        self.backing = backing if backing is not None else MemoryBacking()
        self.profile = profile
        self.clock = clock if clock is not None else VirtualClock()
        self.name = name
        self.stats = DiskStats()
        self._head = -1  # byte position after the last request; -1 = unknown
        # Fault injection (see simcluster.faults): ops served, scheduled
        # faults, sticky failure flag, and the current latency multiplier.
        self.ops = 0
        self.failed = False
        self._faults: list = []
        self._fault_plan = None
        self._slow_factor = 1.0
        self._fired: set[int] = set()  # one-shot faults already applied (by id)
        # OS page cache (time model only — bytes always come from backing).
        # Shared per node when the caller passes one; a private cache is
        # created when only the profile asks for caching.
        self._os_cache = os_cache
        if (
            self._os_cache is None
            and profile is not None
            and profile.os_cache_bytes > 0
        ):
            self._os_cache = OSPageCache(profile.os_cache_bytes // profile.os_page_bytes)

    def install_faults(self, plan, faults) -> None:
        """Attach scheduled faults (see :mod:`repro.simcluster.faults`).

        ``plan`` is kept by reference so arming/disarming it takes effect
        on the next operation; ``faults`` is the subset of its entries that
        matches this device.
        """
        self._fault_plan = plan
        self._faults.extend(faults)

    def clear_faults(self) -> None:
        """Drop scheduled faults and any degradation already in effect.

        A device that already hard-failed stays failed — clearing the plan
        models cancelling pending faults, not repairing dead hardware.
        """
        self._fault_plan = None
        self._faults.clear()
        self._slow_factor = 1.0

    def _apply_corruption(self, fault) -> None:
        """One-shot bit rot: flip every byte of the fault's scope in place.

        The damage happens *below* any checksum framing (it edits the
        backing directly) and costs no I/O time — the platter lied, the
        host did nothing.
        """
        extent = self.backing.size()
        start = min(fault.offset or 0, extent)
        end = extent if fault.length is None else min(start + fault.length, extent)
        if end <= start:
            return
        data = self.backing.read(start, end - start)
        self.backing.write(start, bytes(b ^ 0xFF for b in data))
        self.stats.corrupted_bytes += end - start

    def _check_faults(self, writing: bool = False):
        """Fail or degrade this operation if a scheduled fault has fired.

        Returns the triggering ``crash`` fault when this is a write that
        must be torn short (the caller persists a prefix, then the device
        hard-fails); returns ``None`` otherwise.
        """
        if self.failed:
            raise DeviceFailedError(f"device {self.name!r} has failed")
        if not self._faults or (self._fault_plan is not None and not self._fault_plan.armed):
            self.ops += 1
            return None
        now = self.clock.now
        for fault in self._faults:
            if id(fault) in self._fired or not fault.triggered(now, self.ops):
                continue
            if fault.kind == "fail":
                self._fired.add(id(fault))
                self.failed = True
                self.stats.failures += 1
                raise DeviceFailedError(
                    f"device {self.name!r} failed "
                    f"(injected fault at t={now:.6f}s after {self.ops} ops)"
                )
            if fault.kind == "corrupt":
                self._fired.add(id(fault))
                self.stats.failures += 1
                self._apply_corruption(fault)
            elif fault.kind == "crash":
                self._fired.add(id(fault))
                self.stats.failures += 1
                self.failed = True  # sticky until revive()
                if writing:
                    self.ops += 1
                    return fault  # caller tears the in-flight write
                raise DeviceFailedError(
                    f"device {self.name!r} crashed "
                    f"(injected fault at t={now:.6f}s after {self.ops} ops)"
                )
            elif self._slow_factor < fault.slow_factor:
                self._slow_factor = fault.slow_factor
                self.stats.failures += 1
        self.ops += 1
        return None

    def _os_cache_read(self, offset: int, nbytes: int) -> None:
        """Charge a read through the OS page cache: cached pages pay a
        syscall+copy; missing pages pay physical seek/transfer and are
        inserted.  Each maximal run of contiguous missing pages costs one
        seek; a miss after an interleaved hit starts a new run (unless it
        happens to continue from the device head)."""
        prof = self.profile
        cache = self._os_cache
        page = prof.os_page_bytes
        first, last = offset // page, (offset + max(nbytes, 1) - 1) // page
        hits = 0
        in_miss_run = False
        cost = 0.0
        for p in range(first, last + 1):
            if cache.touch((self.name, p)):
                hits += 1
                in_miss_run = False
            else:
                sequential = in_miss_run or (p * page == self._head)
                if not sequential:
                    self.stats.seeks += 1
                cost += prof.read_cost(page, sequential=sequential)
                self._head = (p + 1) * page
                in_miss_run = True
        cost += hits * prof.os_read_hit_seconds
        cost *= self._slow_factor
        self.clock.advance(cost)
        self.stats.busy_seconds += cost

    def _charge(self, offset: int, nbytes: int, write: bool) -> None:
        if not write and self._os_cache is not None and self.profile is not None:
            self._os_cache_read(offset, nbytes)
            return
        sequential = offset == self._head
        if not sequential:
            self.stats.seeks += 1
        if self.profile is not None:
            cost = (
                self.profile.write_cost(nbytes, sequential)
                if write
                else self.profile.read_cost(nbytes, sequential)
            )
            cost *= self._slow_factor
            self.clock.advance(cost)
            self.stats.busy_seconds += cost
        self._head = offset + nbytes
        if write and self._os_cache is not None and self.profile is not None:
            page = self.profile.os_page_bytes
            for p in range(offset // page, (offset + max(nbytes, 1) - 1) // page + 1):
                self._os_cache.insert((self.name, p))

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length in BlockDevice.read")
        self._check_faults()
        self._charge(offset, nbytes, write=False)
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return self.backing.read(offset, nbytes)

    def readv(self, requests) -> list[bytes]:
        """Vectored read: coalesce adjacent/overlapping requests into runs.

        ``requests`` is a sequence of ``(offset, nbytes)`` pairs; the result
        list matches the request order.  Requests are planned in ascending
        offset order, and every maximal run of touching requests (the next
        offset starting at or before the current run's end) is served by ONE
        device read — one seek, one stats entry, one sequential transfer.
        This is the device half of the batched fringe I/O path: an
        offset-sorted fringe plan turns scattered block reads into a few
        large sequential runs.  No gap is ever read, so byte counts stay
        honest for sparse plans.
        """
        results: list[bytes | None] = [None] * len(requests)
        order = sorted(range(len(requests)), key=lambda i: requests[i][0])
        runs: list[list] = []  # [start, end, [request indices]]
        for i in order:
            offset, nbytes = requests[i]
            if offset < 0 or nbytes < 0:
                raise ValueError("negative offset or length in BlockDevice.readv")
            if runs and offset <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], offset + nbytes)
                runs[-1][2].append(i)
            else:
                runs.append([offset, offset + nbytes, [i]])
        for start, end, idxs in runs:
            self._check_faults()
            self._charge(start, end - start, write=False)
            self.stats.reads += 1
            self.stats.bytes_read += end - start
            data = self.backing.read(start, end - start)
            for i in idxs:
                offset, nbytes = requests[i]
                results[i] = data[offset - start : offset - start + nbytes]
        return results

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0:
            raise ValueError("negative offset in BlockDevice.write")
        crash = self._check_faults(writing=True)
        if crash is not None:
            # Torn write: the platter keeps a prefix of the payload, then
            # the device is gone (power loss mid-transfer).
            torn = bytes(data)[: len(data) // 2]
            if torn:
                self._charge(offset, len(torn), write=True)
                self.stats.writes += 1
                self.stats.bytes_written += len(torn)
                self.backing.write(offset, torn)
            self.stats.torn_writes += 1
            raise DeviceFailedError(
                f"device {self.name!r} crashed mid-write: "
                f"{len(torn)}/{len(data)} bytes persisted at offset {offset}"
            )
        self._charge(offset, len(data), write=True)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        self.backing.write(offset, bytes(data))

    def truncate(self, nbytes: int) -> None:
        """Discard stored bytes past ``nbytes`` (a metadata op: no time
        charged, like TRIM).  Used by crash recovery to drop torn tails."""
        if nbytes < 0:
            raise ValueError("negative size in BlockDevice.truncate")
        self.backing.truncate(nbytes)
        self._head = -1

    def revive(self) -> None:
        """Model a post-crash restart: the device serves I/O again.

        The stored bytes — including any torn tail a ``crash`` fault left
        behind — are untouched; recovery (superblock replay, scrub) is the
        *caller's* job.  Faults that already fired stay consumed, pending
        ones remain scheduled.
        """
        self.failed = False

    def size(self) -> int:
        return self.backing.size()

    def close(self) -> None:
        self.backing.close()
        # The checksum wrapper ``wrap_device`` registered here points back at
        # this device: drop it, so a closed device is freed by reference count.
        vars(self).pop("_integrity", None)
