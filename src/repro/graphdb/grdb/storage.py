"""grDB storage component: multi-level block files + block cache.

One :class:`GrDBStorage` owns, per level, a growing set of block devices
(one per storage file, capped at ``M`` bytes each) and routes every
sub-block read/write through a single shared :class:`LRUBlockCache` keyed
by ``(level, global block index)`` — the "block cache component" of
§3.4.1.  Blocks are the unit of I/O: touching any sub-block moves its whole
block, which is exactly the locality bet the format makes for scale-free
adjacency lists.

Never-written blocks read back as empty-slot fill (0xFF) without touching
the device, modeling the sparse/preallocated level-0 file.

With ``integrity=True`` (the checksummed deployment mode), :meth:`flush`
becomes crash-consistent: the dirty set and the new superblock image are
journaled to a write-ahead log (``<name>_wal``) *before* any in-place
write, as one record behind the WAL's commit root
(:mod:`repro.storage.commit`), whose seq counts committed flushes.  A torn
flush either never committed (the root does not name the record's seq —
recovery discards it and the old image stands) or rolls forward (recovery
replays the journaled spans and superblock).
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from ...simcluster.disk import BlockDevice, MemoryBacking
from ...storage.blockcache import SharedBlockCache, make_block_cache
from ...storage.commit import RECORD_START, CommitRoot, frame_record, read_records
from ...util.errors import ConfigError, CorruptBlockError, GraphStorageException
from .format import GrDBFormat

__all__ = ["GrDBStorage"]

_ROOT_MAGIC = 0x6772444257414C32  # "grDBWAL2"
_WAL_NO_FIELDS = struct.Struct("<")  # the root's seq is the whole commit
_WAL_KIND_PUBLISH = 3  # record: nedges = span count, payload = spans + superblock
_WAL_SPAN = struct.Struct(">HIQQ")  # level, file index, device offset, length
_FRAME = 4096


class GrDBStorage:
    """Multi-level block files + shared block cache (the storage component)."""

    def __init__(
        self,
        fmt: GrDBFormat,
        device_provider: Callable[[str], BlockDevice],
        cache_blocks: int = 256,
        name: str = "grdb",
        integrity: bool = False,
        shared_cache: SharedBlockCache | None = None,
    ):
        self.fmt = fmt
        self._provider = device_provider
        self._name = name
        self.integrity = integrity
        #: The WAL's commit root (checksummed stores only).
        self.wal_root = (
            CommitRoot(self._provider(f"{name}_wal"), _ROOT_MAGIC, _WAL_NO_FIELDS)
            if integrity
            else None
        )
        self._files: dict[tuple[int, int], BlockDevice] = {}
        self._written_blocks: set[tuple[int, int]] = set()
        # Free lists and bump allocators, per level (level 0 is id-addressed
        # and has no allocator).
        self._next_subblock = [0] * fmt.num_levels
        self._free: list[list[int]] = [[] for _ in range(fmt.num_levels)]
        # Private LRU (shared_cache=None, bit-identical to the historical
        # behavior) or an owner partition of the rank's shared pool.
        self.cache = make_block_cache(
            cache_blocks, writer=self._write_block_through, shared=shared_cache, owner=name
        )
        #: The superblock image the last committed flush (or restore) left
        #: durable; a fresh store's empty image needs no flush to hold.
        self._durable_image = self._superblock_image() if integrity else None

    # -- file / block plumbing ---------------------------------------------

    def _device(self, level: int, file_idx: int) -> BlockDevice:
        key = (level, file_idx)
        dev = self._files.get(key)
        if dev is None:
            dev = self._provider(f"{self._name}_L{level}_F{file_idx}")
            self._files[key] = dev
        return dev

    def _block_location(self, level: int, block: int) -> tuple[BlockDevice, int]:
        N = self.fmt.blocks_per_file(level)
        file_idx, in_file = divmod(block, N)
        return self._device(level, file_idx), in_file * self.fmt.block_sizes[level]

    def _write_block_through(self, key: tuple[int, int], data: bytes) -> None:
        level, block = key
        dev, offset = self._block_location(level, block)
        dev.write(offset, data)

    def _read_block(self, level: int, block: int) -> bytes:
        data = self.cache.get((level, block))
        if data is not None:
            return data
        return self._fetch_block(level, block)

    def _fetch_block(self, level: int, block: int) -> bytes:
        """The miss path of :meth:`_read_block`: a block the cache does not
        hold, read from its device (or empty-slot fill if never written)
        and put in the cache."""
        key = (level, block)
        if key not in self._written_blocks:
            data = self.fmt.empty_block(level)
        else:
            dev, offset = self._block_location(level, block)
            B = self.fmt.block_sizes[level]
            if offset + B > dev.size():
                # The superblock says this block was written, but the file
                # is too short to hold it.  Zero-padding the short read
                # would fabricate adjacency data, so fail loudly instead.
                raise CorruptBlockError(
                    dev.name, offset, B,
                    f"written block {block} of level {level} extends past "
                    f"the stored extent ({dev.size()} bytes) — truncated file?",
                )
            data = dev.read(offset, B)
        self.cache.put(key, data)
        return data

    def read_block_batch(self, level: int, blocks) -> dict[int, bytes]:
        """Fetch many blocks of one level through the cache in one pass.

        Blocks are visited in ascending global index order — which is
        ``(file, offset)`` order — and every maximal run of *adjacent*
        missing blocks within one file is fetched by a single vectored
        device read (:meth:`BlockDevice.readv`), so a sorted fringe plan
        pays one seek per run instead of one per block.  Cache hit/miss
        accounting is identical to per-block reads; never-written blocks
        come back as empty-slot fill without touching the device.
        """
        out: dict[int, bytes] = {}
        missing: list[int] = []
        # Cap cache insertions at the scan budget: a batch larger than that
        # would otherwise evict earlier blocks of this very batch (forcing
        # dirty write-backs mid-read) with none of them surviving anyway —
        # and, on a shared pool, would bulldoze other owners' and queries'
        # hot blocks (the budget is the probation segment there).
        budget = self.cache.scan_budget()
        for block in sorted(set(int(b) for b in blocks)):
            key = (level, block)
            data = self.cache.get(key)
            if data is not None:
                out[block] = data
            elif key not in self._written_blocks:
                data = self.fmt.empty_block(level)
                out[block] = data
                if budget > 0:
                    budget -= 1
                    self.cache.put(key, data)
            else:
                missing.append(block)
        if missing:
            B = self.fmt.block_sizes[level]
            N = self.fmt.blocks_per_file(level)
            per_file: dict[int, list[int]] = {}
            for block in missing:  # already sorted ascending
                per_file.setdefault(block // N, []).append(block)
            for file_idx, file_blocks in per_file.items():
                dev = self._device(level, file_idx)
                last_off = (file_blocks[-1] % N) * B  # ascending order
                if last_off + B > dev.size():
                    raise CorruptBlockError(
                        dev.name, last_off, B,
                        f"written block {file_blocks[-1]} of level {level} "
                        f"extends past the stored extent ({dev.size()} bytes)"
                        " — truncated file?",
                    )
                datas = dev.readv([((b % N) * B, B) for b in file_blocks])
                for block, data in zip(file_blocks, datas):
                    out[block] = data
                    if budget > 0:
                        budget -= 1
                        self.cache.put((level, block), data)
        return out

    def _write_block(self, level: int, block: int, data: bytes) -> None:
        key = (level, block)
        self._written_blocks.add(key)
        if self.cache.capacity > 0:
            self.cache.put(key, data, dirty=True)
        else:
            self._write_block_through(key, data)

    # -- sub-block API ---------------------------------------------------------

    def read_subblock(self, level: int, subblock: int) -> bytes:
        block, start, stop = self.fmt.subblock_span(level, subblock)
        return self._read_block(level, block)[start:stop]

    def write_subblock(self, level: int, subblock: int, data: bytes) -> None:
        block, start, stop = self.fmt.subblock_span(level, subblock)
        if len(data) != stop - start:
            raise GraphStorageException(
                f"sub-block write of {len(data)} bytes != {stop - start} at level {level}"
            )
        buf = bytearray(self._read_block(level, block))
        buf[start:stop] = data
        self._write_block(level, block, bytes(buf))

    def read_subblocks(
        self, level: int, subblocks: np.ndarray, held: dict[int, bytes] | None = None
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Batch-read the blocks holding ``subblocks`` of ``level``.

        Returns ``(blocks, image, rows)``: the distinct block indices,
        ascending; their sub-blocks as the rows of one read-only ``(n,
        subblock_bytes)`` uint8 matrix; and the row of each requested
        sub-block in it.  A ``held`` dict serves the blocks it already maps
        and keeps the ones fetched, so a caller can read, then
        :meth:`write_subblocks`, without fetching a block twice.
        """
        held = {} if held is None else held
        k = self.fmt.subblocks_per_block(level)
        blocks, rank = np.unique(subblocks // k, return_inverse=True)
        blocks = blocks.tolist()
        missing = [b for b in blocks if b not in held]
        if missing:
            held.update(self.read_block_batch(level, missing))
        image = np.frombuffer(b"".join(held[b] for b in blocks), dtype=np.uint8)
        return blocks, image.reshape(-1, self.fmt.subblock_bytes(level)), rank * k + subblocks % k

    def write_subblocks(
        self,
        level: int,
        subblocks: np.ndarray,
        frames: np.ndarray,
        held: dict[int, bytes] | None = None,
    ) -> None:
        """Write many sub-blocks of ``level``, touching each block once.

        Row ``i`` of the ``(m, subblock_bytes)`` uint8 matrix ``frames``
        replaces sub-block ``subblocks[i]``.  Blocks come from ``held``
        (what :meth:`read_subblocks` fetched; nothing may have written them
        since) or are batch-read now; every touched block gets all its rows
        spliced in and one write, in ascending order.
        """
        if len(subblocks) == 0:
            return
        self.fmt.subblock_span(level, int(subblocks.min()))  # raises on a bad address
        if frames.shape != (len(subblocks), self.fmt.subblock_bytes(level)):
            raise GraphStorageException(
                f"sub-block write of shape {frames.shape} for {len(subblocks)} "
                f"sub-blocks of {self.fmt.subblock_bytes(level)} bytes at level {level}"
            )
        blocks, image, rows = self.read_subblocks(level, subblocks, held)
        image = image.copy()
        image[rows] = frames
        raw = image.tobytes()
        B = self.fmt.block_sizes[level]
        for i, block in enumerate(blocks):
            self._write_block(level, block, raw[i * B : (i + 1) * B])

    # -- allocation ---------------------------------------------------------------

    def allocate_subblock(self, level: int) -> int:
        """Allocate a sub-block at ``level >= 1`` (freelist first, then bump)."""
        if level < 1:
            raise ConfigError("level-0 sub-blocks are addressed by vertex id, not allocated")
        if self._free[level]:
            return self._free[level].pop()
        sb = self._next_subblock[level]
        self._next_subblock[level] = sb + 1
        return sb

    def free_subblock(self, level: int, subblock: int) -> None:
        """Return an allocated sub-block (level >= 1) to its free list.

        Rejects ids that were never handed out and double frees: either
        would later make :meth:`allocate_subblock` hand the same sub-block
        to two owners, silently corrupting adjacency data.
        """
        if not 1 <= level < self.fmt.num_levels:
            raise GraphStorageException(
                f"cannot free sub-block at level {level}: levels 1.."
                f"{self.fmt.num_levels - 1} are allocated, level 0 is id-addressed"
            )
        if not 0 <= subblock < self._next_subblock[level]:
            raise GraphStorageException(
                f"cannot free never-allocated sub-block {subblock} at level "
                f"{level} (allocator high-water mark is {self._next_subblock[level]})"
            )
        if subblock in self._free[level]:
            raise GraphStorageException(
                f"double free of sub-block {subblock} at level {level}"
            )
        self._free[level].append(subblock)

    def allocated_subblocks(self, level: int) -> int:
        return self._next_subblock[level] - len(self._free[level])

    def chain_bound(self) -> int:
        """The most sub-blocks an acyclic chain can hold: its head plus every
        sub-block the allocators ever handed out (the high-water marks,
        restored at open).  A walk that exceeds it is following a cycle."""
        return 1 + sum(self._next_subblock)

    # -- lifecycle / stats -----------------------------------------------------------

    def _superblock_image(self) -> bytes:
        """Serialize the current superblock to bytes (no device I/O)."""
        from .superblock import save_superblock

        scratch = BlockDevice(MemoryBacking())
        save_superblock(scratch, self)
        return scratch.backing.read(0, scratch.size())

    def _publish_spans(self, dirty) -> list[tuple[int, int, int, bytes]]:
        """Turn the dirty block set into frame-aligned device write spans.

        Each span is ``(level, file_idx, device_offset, payload)`` with
        offset and length multiples of the 4 KiB checksum frame, so replay
        can overwrite torn frames blindly — an unaligned replay write would
        read-modify-write through the checksum layer and trip over the very
        frame it is trying to heal.  Touching spans within one file are
        merged; when the level's block size is not frame-aligned, the gap
        bytes come from a (verified) base read of the current content.
        """
        per_file: dict[tuple[int, int], list[tuple[int, bytes]]] = {}
        for (level, block), data in dirty:
            N = self.fmt.blocks_per_file(level)
            file_idx, in_file = divmod(block, N)
            per_file.setdefault((level, file_idx), []).append(
                (in_file * self.fmt.block_sizes[level], data)
            )
        spans: list[tuple[int, int, int, bytes]] = []
        for (level, file_idx), writes in sorted(per_file.items()):
            writes.sort()
            aligned = self.fmt.block_sizes[level] % _FRAME == 0
            intervals: list[list[int]] = []  # [start, end), frame-aligned
            for off, data in writes:
                start = (off // _FRAME) * _FRAME
                end = -(-(off + len(data)) // _FRAME) * _FRAME
                if intervals and start <= intervals[-1][1]:
                    intervals[-1][1] = max(intervals[-1][1], end)
                else:
                    intervals.append([start, end])
            dev = self._device(level, file_idx)
            for start, end in intervals:
                if aligned:
                    buf = bytearray(end - start)
                else:
                    buf = bytearray(dev.read(start, end - start))
                for off, data in writes:
                    if start <= off < end:
                        buf[off - start : off - start + len(data)] = data
                spans.append((level, file_idx, start, bytes(buf)))
        return spans

    def _write_superblock(self, image: bytes) -> None:
        """Overwrite the superblock with ``image`` padded to whole frames, so
        the write never reads (and trips over) the frame it replaces."""
        padded = image.ljust(-(-len(image) // _FRAME) * _FRAME, b"\x00")
        self._provider(f"{self._name}_super").write(0, padded)

    def flush(self) -> None:
        from .superblock import save_superblock

        if not self.integrity:
            self.cache.flush()
            save_superblock(self._provider(f"{self._name}_super"), self)
            return
        # Crash-consistent publish: journal the dirty spans and the new
        # superblock image, commit the root, then apply in place.  A crash
        # before the root lands leaves the old image authoritative; a crash
        # after it rolls forward on the next restore().  A flush with
        # nothing to publish commits nothing and leaves the counter be (a
        # compaction intent reads "counter advanced" as "the fold landed").
        dirty = self.cache.dirty_items()
        super_img = self._superblock_image()
        if not dirty and super_img == self._durable_image:
            return
        spans = self._publish_spans(dirty)
        body = bytearray()
        for level, file_idx, off, payload in spans:
            body += _WAL_SPAN.pack(level, file_idx, off, len(payload))
            body += payload
        body += super_img
        wal = self.wal_root.device
        seq = self.wal_root.seq + 1
        wal.write(RECORD_START, frame_record(_WAL_KIND_PUBLISH, seq, len(spans), bytes(body)))
        self.wal_root.commit()  # the commit point
        self.cache.flush()
        self._write_superblock(super_img)
        wal.truncate(RECORD_START)
        self._durable_image = super_img

    def _replay_wal(self) -> None:
        """Recover from a torn flush: roll a committed WAL record forward,
        discard an uncommitted one.  Idempotent; no-op when the WAL holds
        no record."""
        self.wal_root.load()
        wal = self.wal_root.device
        if wal.size() <= RECORD_START:
            return
        try:
            body = wal.read(RECORD_START, wal.size() - RECORD_START)
        except CorruptBlockError:
            body = b""  # the record itself is torn: it never committed
        for rec in read_records(body):
            if rec.kind != _WAL_KIND_PUBLISH or rec.seq != self.wal_root.seq:
                break  # written, but the root never named it
            off = 0
            for _ in range(rec.nedges):
                level, file_idx, dev_off, length = _WAL_SPAN.unpack_from(rec.payload, off)
                off += _WAL_SPAN.size
                self._device(level, file_idx).write(dev_off, rec.payload[off : off + length])
                off += length
            self._write_superblock(rec.payload[off:])
            break
        wal.truncate(RECORD_START)

    def restore(self) -> bool:
        """Adopt persisted bookkeeping from this instance's superblock.

        Returns False when no superblock exists (fresh instance); raises
        when one exists but disagrees with the configured format, or when
        the adopted block map points past the stored device extents (a
        truncated or swapped level file — better a clear error here than
        fabricated adjacency data mid-query).  With ``integrity=True`` a
        pending write-ahead log is replayed (or discarded) first, so a
        process killed mid-:meth:`flush` reopens onto a consistent image.
        """
        from .superblock import load_superblock

        if self.integrity:
            self._replay_wal()
        dev = self._provider(f"{self._name}_super")
        if dev.size() == 0:
            return False
        state = load_superblock(dev)
        if state["format"] != self.fmt:
            raise GraphStorageException(
                "superblock format differs from the configured GrDBFormat; "
                f"on disk: {state['format']}, configured: {self.fmt}"
            )
        # The cache may hold blocks (dirty ones, even) from before the
        # restore; they describe the pre-restore image, so flushing them
        # would corrupt the state just adopted.  Discard, don't flush.
        self.cache.drop()
        self._next_subblock = list(state["next_subblock"])
        self._free = [list(f) for f in state["free"]]
        self._written_blocks = set(state["written_blocks"])
        if self.integrity:
            self._durable_image = self._superblock_image()
        # Cross-check the block map against what the devices actually hold:
        # a written block past a file's extent would otherwise surface much
        # later as a zero-padded read masquerading as adjacency data.
        worst: dict[tuple[int, int], int] = {}
        for level, block in self._written_blocks:
            file_idx = block // self.fmt.blocks_per_file(level)
            worst[(level, file_idx)] = max(worst.get((level, file_idx), -1), block)
        for (level, file_idx), block in sorted(worst.items()):
            dev, offset = self._block_location(level, block)
            B = self.fmt.block_sizes[level]
            if offset + B > dev.size():
                raise GraphStorageException(
                    f"superblock lists block {block} of level {level} as "
                    f"written, but device {dev.name!r} holds only "
                    f"{dev.size()} bytes (needs {offset + B}) — truncated "
                    "or mismatched level file"
                )
        return True

    def close(self) -> None:
        """Let go of the devices: the node's block pool and this storage
        reference each other, which would keep them alive past close."""
        self._files = {}
        self.wal_root = None

    def total_device_stats(self) -> dict[str, int]:
        reads = writes = bytes_read = bytes_written = seeks = 0
        for dev in self._files.values():
            reads += dev.stats.reads
            writes += dev.stats.writes
            bytes_read += dev.stats.bytes_read
            bytes_written += dev.stats.bytes_written
            seeks += dev.stats.seeks
        return {
            "reads": reads,
            "writes": writes,
            "bytes_read": bytes_read,
            "bytes_written": bytes_written,
            "seeks": seeks,
            "files": len(self._files),
        }
