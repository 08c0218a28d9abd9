"""grDB GraphDB implementation (§3.4.1, §4.1.6).

Adjacency storage per vertex ``v``:

* the beginning of ``v``'s adjacency list lives in the ``v``-th level-0
  sub-block (through an :class:`IdMap` when vertices are declustered);
* a sub-block holds vertex entries left-to-right; when it fills and more
  neighbors arrive, its *last* slot is replaced by a pointer to a freshly
  allocated sub-block at a higher level (the displaced entry moves there);
* growth policy (the explicit design fork in §3.4.1):

  - ``"link"`` — leave filled sub-blocks in place and chain, fragmenting
    the list across levels (cheap inserts, extra seeks on read);
  - ``"move"`` — when a level-``l >= 1`` sub-block fills, copy its whole
    contents into a level-``l+1`` sub-block, free the old one, and repoint
    the level-0 pointer, keeping every chain at length <= 2 (extra copies
    on insert, compact reads).

  ``repro.graphdb.grdb.defrag`` converts link-fragmented chains into the
  compact form "during idle time", as the paper suggests.

Degrees beyond the top level's capacity chain additional top-level
sub-blocks, so arbitrarily large hubs are storable.  Every chain walker
stops at :meth:`GrDBStorage.chain_bound` sub-blocks (the head plus every
sub-block ever allocated), the longest an acyclic chain can be.
"""

from __future__ import annotations

from array import array
from typing import Callable

import numpy as np

from ...simcluster.disk import BlockDevice
from ...util.errors import ConfigError, GraphStorageException
from ...util.varint import fit_sorted_segments
from ..idmap import IdentityMap, IdMap
from ..interface import AdjacencyBatch, GraphDB, gather_segments
from .format import (
    COMPRESSED_COUNT_CAP,
    EMPTY_SLOT,
    MAX_VERTEX_ID,
    SLOT_BYTES,
    GrDBFormat,
    decode_pointer,
    encode_pointer,
    is_pointer,
    join_pointers,
    split_pointers,
)
from .storage import GrDBStorage

__all__ = ["GrDB"]

_POLICIES = ("link", "move")

#: Columns of the ingestion memo (one int64 row per local id).
_LEVEL, _SB, _FILL, _PLEVEL, _PSB = range(5)

_EMPTY = np.empty(0, dtype=np.int64)

#: Raw lists up to this many slot words have their entries counted by
#: ``array.count`` in the per-vertex walk, longer ones by one numpy compare.
_ARRAY_COUNT_WORDS = 64


class GrDB(GraphDB):
    """The paper's multi-level sub-block graph database (see module doc)."""

    name = "grDB"

    def __init__(
        self,
        device_provider: Callable[[str], BlockDevice],
        fmt: GrDBFormat | None = None,
        cache_blocks: int = 256,
        id_map: IdMap | None = None,
        growth_policy: str = "link",
        integrity: bool = False,
        shared_cache=None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if growth_policy not in _POLICIES:
            raise ConfigError(f"growth_policy must be one of {_POLICIES}, got {growth_policy!r}")
        self.fmt = fmt if fmt is not None else GrDBFormat()
        self.storage = GrDBStorage(
            self.fmt,
            device_provider,
            cache_blocks=cache_blocks,
            integrity=integrity,
            shared_cache=shared_cache,
        )
        self.id_map = id_map if id_map is not None else IdentityMap()
        self.growth_policy = growth_policy
        # Ingestion memo, one row per local id (grown by doubling): the
        # vertex's chain tail (level, sub-block), level -1 = unknown; the
        # tail's used slots (raw format); the tail's parent (what ``move``
        # repoints, level -1 = the tail is the head).  Purely an in-memory
        # accelerator; the on-disk chain is always authoritative and
        # re-walkable.
        self._memo = np.zeros((0, 5), dtype=np.int64)
        # Decoded-block memo of compressed reads (:meth:`_decoded_rows`), one
        # dict per level: ``block -> (bytes, values, consumed)``, at most one
        # entry per stored block.  Wall clock only; every charge stays put.
        self._decoded: list[dict[int, tuple[bytes, np.ndarray, np.ndarray]]] = [
            {} for _ in range(self.fmt.num_levels)
        ]
        if self.storage.restore():
            self._rebuild_known_locals()

    # -- chain navigation ----------------------------------------------------

    def _read_slots(self, level: int, sb: int) -> np.ndarray:
        # Addressing + decoding one sub-block is pure arithmetic (no key
        # comparisons), the CPU edge grDB holds over B-tree stores.
        self.clock.advance(self.cpu.grdb_subblock_seconds)
        return self.fmt.parse_slots(self.storage.read_subblock(level, sb))

    def _write_slots(self, level: int, sb: int, slots: np.ndarray) -> None:
        self.storage.write_subblock(level, sb, self.fmt.pack_slots(slots))

    def _read_compressed(self, level: int, sb: int) -> tuple[np.ndarray, int]:
        """Read + unframe one compressed sub-block: ``(values, tail slot)``.

        Charges the same per-sub-block addressing cost as the raw path plus
        the vectorized varint decode, per byte actually decoded.
        """
        values, tail, consumed = self.fmt.decode_subblock(
            self.storage.read_subblock(level, sb)
        )
        self.clock.advance(
            self.cpu.grdb_subblock_seconds + consumed * self.cpu.varint_decode_seconds
        )
        return values, tail

    def _write_compressed(self, level: int, sb: int, values: np.ndarray, tail: int) -> None:
        self.storage.write_subblock(level, sb, self.fmt.encode_subblock(level, values, tail))

    def _walk(self, local: int) -> tuple[list[tuple[int, int]], int]:
        """Follow ``local``'s chain to its tail; returns (path, tail fill)."""
        path = [(0, local)]
        bound = self.storage.chain_bound()
        while True:
            level, sb = path[-1]
            if self.fmt.compress:
                values, last = self._read_compressed(level, sb)
            else:
                slots = self._read_slots(level, sb)
                last = int(slots[-1])
            if is_pointer(last):
                if len(path) >= bound:
                    raise GraphStorageException(f"pointer cycle in chain of local vertex {local}")
                path.append(decode_pointer(last))
            elif self.fmt.compress:
                return path, len(values)
            else:
                used = int(np.count_nonzero(slots != EMPTY_SLOT))
                return path, used

    def _grow_memo(self, size: int) -> None:
        have = len(self._memo)
        if size > have:
            memo = np.zeros((max(size, 2 * have), 5), dtype=np.int64)
            memo[:, (_LEVEL, _PLEVEL)] = -1
            memo[:have] = self._memo
            self._memo = memo

    def _remember(self, local: int, path: list[tuple[int, int]], used: int) -> None:
        parent = path[-2] if len(path) > 1 else (-1, -1)
        self._memo[local, _LEVEL:] = (*path[-1], used, *parent)

    # -- ingestion -----------------------------------------------------------

    def _store_edges(self, edges: np.ndarray) -> None:
        if len(edges) == 0:
            return
        if edges.max() > MAX_VERTEX_ID:
            raise GraphStorageException(
                f"vertex id {edges.max()} exceeds grDB's 61-bit id space"
            )
        order = np.argsort(edges[:, 0], kind="stable")
        srcs = edges[order, 0]
        dsts = edges[order, 1]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(srcs)) + 1))
        locals_, owned = self.id_map.to_local_many(srcs[starts])
        if not owned.all():
            raise ConfigError(
                f"vertex {int(srcs[starts][~owned][0])} is not owned by this grDB's id map"
            )
        self._grow_memo(int(locals_.max()) + 1)
        bounds = np.append(starts, len(srcs))
        if self.fmt.compress:
            self._append_window(locals_, bounds, dsts.astype(np.uint64))
            return
        self._append_raw(locals_, bounds, dsts)

    def _append_raw(self, locals_: np.ndarray, bounds: np.ndarray, new: np.ndarray) -> None:
        """Append a whole window to raw chains, vertex by vertex: owner
        ``i`` (local ``locals_[i]``) gains ``new[bounds[i]:bounds[i + 1]]``.

        A vertex the memo does not know walks its chain from the head
        first.  Its tail is then read, filled with spliced-in entries and
        grown as it fills: ``link`` displaces the last entry into a new
        higher-level sub-block behind a pointer; ``move`` copies a full
        mid-level tail one level up, frees it and repoints the parent.

        Each sub-block read charges ``grdb_subblock_seconds`` before its
        one cache ``get``; each write is the ``get`` of its block and one
        dirty ``put`` (a write-through at cache capacity 0).  The charges
        add up in a local float and reach the node clock (``advance_to``)
        before every call that may touch a device — a miss
        (:meth:`GrDBStorage._fetch_block`), a dirty ``put``, a
        write-through — and once on exit, raise or return, so the clock
        ends bit for bit where per-charge advances leave it.  The memo,
        read and written in place through a flat ``memoryview``, takes a
        walked tail right after the walk and the final tail after the
        vertex's last write: a device failure mid-window leaves it as one
        :meth:`_walk` and :meth:`_remember` per vertex would.
        """
        fmt, clock, storage = self.fmt, self.clock, self.storage
        cache, fetch, written = storage.cache, storage._fetch_block, storage._written_blocks
        get, put, through = cache.get, cache.put, storage._write_block_through
        write_back = cache.capacity > 0
        layout, caps = fmt._subblock_layout, fmt.capacities
        top = len(layout) - 1
        empties = [fmt.empty_subblock(lv) for lv in range(top + 1)]
        sub_s, move = self.cpu.grdb_subblock_seconds, self.growth_policy == "move"
        words = new.astype("<u8").tobytes()
        now = clock.now

        def read(level, sb):
            nonlocal now
            now += sub_s
            # Pointers come from disk: address checks as subblock_span's.
            if not 0 <= level <= top:
                raise GraphStorageException(f"level {level} out of range")
            if sb < 0:
                raise GraphStorageException(f"negative sub-block index {sb}")
            k, nbytes = layout[level]
            block, at = divmod(sb, k)
            data = get((level, block))
            if data is None:
                clock.advance_to(now)
                data = fetch(level, block)
                now = clock.now
            return bytearray(memoryview(data)[at * nbytes : (at + 1) * nbytes])

        def write(level, sb, slots):
            nonlocal now
            k, nbytes = layout[level]
            block, at = divmod(sb, k)
            key = (level, block)
            data = get(key)
            if data is None:
                clock.advance_to(now)
                data = fetch(level, block)
                now = clock.now
            buf = bytearray(data)
            buf[at * nbytes : (at + 1) * nbytes] = slots
            data = bytes(buf)
            written.add(key)
            clock.advance_to(now)
            if write_back:
                put(key, data, dirty=True)
            else:
                through(key, data)
            now = clock.now

        memo = memoryview(self._memo).cast("B").cast("q")  # five words per local
        try:
            for local, lo, hi in zip(locals_.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
                row = 5 * local
                level, sb, used, plevel, psb = memo[row : row + 5].tolist()
                if level < 0:  # first touch: walk the chain from its head
                    level, sb, plevel, psb = 0, local, -1, -1
                    hops, bound = 1, storage.chain_bound()
                    while True:
                        slots = read(level, sb)
                        last = int.from_bytes(slots[-SLOT_BYTES:], "little")
                        if not is_pointer(last):
                            break
                        if hops >= bound:
                            raise GraphStorageException(
                                f"pointer cycle in chain of local vertex {local}"
                            )
                        hops += 1
                        plevel, psb, (level, sb) = level, sb, decode_pointer(last)
                    used = len(slots) // SLOT_BYTES - array("Q", slots).count(EMPTY_SLOT)
                    memo[row : row + 5] = array("q", (level, sb, used, plevel, psb))
                slots = read(level, sb)
                i, stop = lo * SLOT_BYTES, hi * SLOT_BYTES
                while True:
                    take = min(caps[level] - used, (stop - i) // SLOT_BYTES) * SLOT_BYTES
                    if take > 0:
                        slots[used * SLOT_BYTES : used * SLOT_BYTES + take] = words[i : i + take]
                        used += take // SLOT_BYTES
                        i += take
                    if i >= stop:
                        break
                    # The tail is full; grow the chain.
                    if move and 1 <= level < top:
                        nsb = storage.allocate_subblock(level + 1)
                        grown = bytearray(empties[level + 1])
                        grown[: len(slots)] = slots
                        storage.free_subblock(level, sb)
                        parent = read(plevel, psb)
                        parent[-SLOT_BYTES:] = encode_pointer(level + 1, nsb).to_bytes(8, "little")
                        write(plevel, psb, parent)
                        level, sb, slots = level + 1, nsb, grown
                    else:
                        tgt = min(level + 1, top)
                        nsb = storage.allocate_subblock(tgt)
                        displaced = slots[-SLOT_BYTES:]
                        slots[-SLOT_BYTES:] = encode_pointer(tgt, nsb).to_bytes(8, "little")
                        write(level, sb, slots)
                        slots = bytearray(empties[tgt])
                        slots[:SLOT_BYTES] = displaced
                        plevel, psb, level, sb, used = level, sb, tgt, nsb, 1
                write(level, sb, slots)
                memo[row : row + 5] = array("q", (level, sb, used, plevel, psb))
        finally:
            clock.advance_to(now)
            memo.release()

    def _read_tails(self, locals_: np.ndarray, held: list[dict[int, bytes]]):
        """:meth:`_walk` for a whole window, level-synchronously.

        Starts every owner at its memoised tail (its head where the memo
        has none) and follows pointers round by round: one block batch and
        one decode per level and round, one CPU charge per sub-block in
        owner order.  Returns the tails' ``(level, sb)``, their parents'
        ``(plevel, psb)`` and the neighbors the tails hold as ``(values,
        owner)``; the fetched blocks stay in ``held``.
        """
        fmt, cpu = self.fmt, self.cpu
        level, sb, plevel, psb = self._memo[locals_][:, (_LEVEL, _SB, _PLEVEL, _PSB)].T.copy()
        unknown = level < 0
        level[unknown], sb[unknown] = 0, locals_[unknown]
        values, owner = [], []
        walking = np.arange(len(locals_))
        hops, bound = 0, self.storage.chain_bound()
        while len(walking):
            hops += 1
            if hops > bound:
                raise GraphStorageException(
                    f"pointer cycle in chain of local vertex {int(locals_[walking[0]])}"
                )
            tail = np.empty(len(walking), dtype=np.uint64)
            cost = np.empty(len(walking))
            for lv in np.unique(level[walking]).tolist():
                at = np.flatnonzero(level[walking] == lv)
                subs = sb[walking[at]]
                frames, _ = self._read_frames(lv, subs, held[lv])
                decoded, offsets, tail[at], used = fmt.decode_subblocks(lv, subs, frames)
                cost[at] = cpu.grdb_subblock_seconds + used * cpu.varint_decode_seconds
                ends = ~split_pointers(tail[at])[0]
                values.append(decoded[np.repeat(ends, np.diff(offsets))])
                owner.append(np.repeat(walking[at][ends], np.diff(offsets)[ends]))
            self.clock.advance_each(cost)
            more, nlevel, nsb = split_pointers(tail)
            walking = walking[more]
            plevel[walking], psb[walking] = level[walking], sb[walking]
            level[walking], sb[walking] = nlevel, nsb
        return level, sb, plevel, psb, np.concatenate(values), np.concatenate(owner)

    def _append_window(self, locals_: np.ndarray, bounds: np.ndarray, new: np.ndarray) -> None:
        """Append a whole window to compressed chains: owner ``i`` (local
        ``locals_[i]``, ascending) gains ``new[bounds[i]:bounds[i + 1]]``.

        Every tail's sorted list is merged with its incoming batch (a sorted
        multiset — duplicate edges are kept); the longest unique prefix
        whose encoding fits the tail's payload budget is re-framed in place,
        and the spill (byte overflow plus duplicate occurrences) grows the
        chain exactly like the raw format: ``link`` leaves the full
        sub-block behind a pointer, ``move`` re-homes the whole tail one
        level up first.  Per-sub-block lists stay strictly sorted, so
        decode-side monotonicity checks have teeth.

        The window is the unit of work.  All tails are read first, in
        block order; growth is planned for every owner at once, in rounds
        that shrink to the owners still spilling — a fit depends on level
        and budget only, never on a sub-block id; then sub-blocks are
        allocated owner by owner in chain order, which is the order one
        append per vertex would use, so the device image is the same; and
        every touched block gets all its frames spliced in and one write.
        """
        fmt, cpu, storage = self.fmt, self.cpu, self.storage
        n = len(locals_)
        top = fmt.num_levels - 1
        held: list[dict[int, bytes]] = [{} for _ in range(fmt.num_levels)]
        level, sb, plevel, psb, old, old_owner = self._read_tails(locals_, held)

        # -- merge: one sort puts every owner's tail and batch together ------
        values = np.concatenate((old, new))
        owner = np.concatenate((old_owner, np.repeat(np.arange(n), np.diff(bounds))))
        pending = values[np.lexsort((values, owner))]
        counts = np.bincount(owner, minlength=n)

        # -- plan: per round one frame per owner that stays where it is, one
        # growth event per owner that spills ----------------------------------
        payload = np.array([fmt.payload_bytes(lv) for lv in range(fmt.num_levels)])
        at_level = level.copy()
        active = np.arange(n)
        f_owner, f_level, f_len, f_vals = [], [], [], []
        e_owner, e_level, e_move = [], [], []
        rounds = 0
        while len(active):
            rounds += 1
            if rounds > (1 << 20):
                raise GraphStorageException(
                    f"runaway chain growth appending to local vertex {int(locals_[active[0]])}"
                )
            lv = at_level[active]
            offsets = np.concatenate(([0], np.cumsum(counts)))
            fit, taken = fit_sorted_segments(pending, offsets, payload[lv], COMPRESSED_COUNT_CAP)
            spills = taken < counts
            # ``move`` re-homes a spilling mid-level tail one level up and
            # retries everything pending against the larger budget; anyone
            # else frames the fit where it is and spills the rest.
            moves = spills & (self.growth_policy == "move") & (lv >= 1) & (lv < top)
            fit &= np.repeat(~moves, counts)
            taken[moves] = 0
            f_owner.append(active[~moves])
            f_level.append(lv[~moves])
            f_len.append(taken[~moves])
            f_vals.append(pending[fit])
            e_owner.append(active[spills])
            e_level.append(lv[spills])
            e_move.append(moves[spills])
            pending = pending[~fit]
            counts = (counts - taken)[spills]
            active = active[spills]
            at_level[active] = np.minimum(lv[spills] + 1, top)

        # -- allocate: replay the events owner-major, chain order within ----
        e_owner, e_level, e_move = map(np.concatenate, (e_owner, e_level, e_move))
        order = np.argsort(e_owner, kind="stable")
        e_owner, e_level, e_move = (a[order] for a in (e_owner, e_level, e_move))
        chained = np.zeros(len(e_owner), dtype=bool)  # grows what the event before allocated
        chained[1:] = e_owner[1:] == e_owner[:-1]
        e_new = np.empty(len(e_owner), dtype=np.int64)
        grown = -1
        for i, (lv, move, chain, first) in enumerate(
            zip(e_level.tolist(), e_move.tolist(), chained.tolist(), sb[e_owner].tolist())
        ):
            grown = grown if chain else first
            e_new[i] = storage.allocate_subblock(min(lv + 1, top))
            if move:  # frees what it re-homes: a later owner may be handed it
                storage.free_subblock(lv, grown)
            grown = int(e_new[i])
        e_grown = np.where(chained, np.roll(e_new, 1), sb[e_owner])

        # -- frame: chain each owner's frames, one encode per level ---------
        f_owner, f_level, f_len = map(np.concatenate, (f_owner, f_level, f_len))
        f_vals = np.concatenate(f_vals)
        f_start = np.cumsum(f_len) - f_len
        order = np.argsort(f_owner, kind="stable")
        f_owner, f_level, f_len, f_start = (a[order] for a in (f_owner, f_level, f_len, f_start))
        last = np.append(f_owner[1:] != f_owner[:-1], True)  # the owner's new tail
        first = np.append(True, last[:-1])
        f_sb = np.empty(len(f_owner), dtype=np.int64)
        f_sb[~last] = e_grown[~e_move]  # a link event frames the sub-block it grows
        f_sb[last] = sb
        ends = np.flatnonzero(np.diff(e_owner, append=-1))  # each owner's last event
        f_sb[np.flatnonzero(last)[e_owner[ends]]] = e_new[ends]
        f_tail = np.full(len(f_owner), EMPTY_SLOT, dtype=np.uint64)
        f_tail[~last] = join_pointers(f_level[1:], f_sb[1:])[~last[:-1]]
        writes = {}
        for lv in np.unique(f_level).tolist():
            at = np.flatnonzero(f_level == lv)
            values, offsets = gather_segments(f_vals, f_start[at], f_len[at])
            writes[lv] = (f_sb[at], fmt.encode_subblocks(lv, values, offsets, f_tail[at]))
        # A tail moved before its first frame leaves its on-disk parent
        # pointing at a freed sub-block: patch the parent's tail word.
        moved = np.flatnonzero(first)
        moved = moved[(f_level[moved] != level) | (f_sb[moved] != sb)]
        for lv in np.unique(plevel[f_owner[moved]]).tolist():
            at = moved[plevel[f_owner[moved]] == lv]
            subs = psb[f_owner[at]]
            frames, _ = self._read_frames(lv, subs, held[lv])
            used = fmt.decode_subblocks(lv, subs, frames)[3]
            self.clock.advance_each(cpu.grdb_subblock_seconds + used * cpu.varint_decode_seconds)
            frames = frames.copy()
            frames[:, -8:] = join_pointers(f_level[at], f_sb[at])[:, None].view(np.uint8)
            done = writes.get(lv, (subs[:0], frames[:0]))
            writes[lv] = (np.concatenate((done[0], subs)), np.concatenate((done[1], frames)))

        # -- write: every touched block once, then the memo ------------------
        for lv in sorted(writes):
            storage.write_subblocks(lv, *writes[lv], held[lv])
        grew = np.flatnonzero(last & ~first)  # tails with a frame of this window before them
        plevel[f_owner[grew]], psb[f_owner[grew]] = f_level[grew - 1], f_sb[grew - 1]
        self._memo[locals_, _LEVEL:] = np.column_stack(
            (f_level[last], f_sb[last], f_len[last], plevel, psb)
        )

    # -- retrieval --------------------------------------------------------------

    def _id_bound(self) -> int:
        """The 61-bit id space :meth:`_store_edges` accepts."""
        return MAX_VERTEX_ID + 1

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        return self._walk_chains([vertex], account=False)

    def _walk_chains(self, vertices, account: bool = True) -> np.ndarray:
        """The per-vertex plan (the prototype's one
        ``getAdjacencyListUsingMetadata`` per fringe vertex): walk each
        vertex's chain sub-block by sub-block, in fringe order, and return
        the lists concatenated (int64, chain order, duplicates kept).

        Each sub-block costs ``grdb_subblock_seconds`` — charged before the
        read on raw slots, after the decode (plus the decoded varint bytes)
        on compressed frames — and each vertex, once its last sub-block is
        read, ``len · edge_visit_seconds`` plus its request and edge counts
        when ``account`` (the fringe contract; ``get_adjacency`` accounts
        for itself).  A vertex this store does not own reads nothing.

        The charges add up in a local float, in that order, and reach the
        node clock (``advance_to``) before every cache miss — the only
        point where a device may read the clock, charge it or fire an
        ``at_time`` fault — and once on exit, raise or return; the counts
        likewise.  Each addition is the one ``advance`` would make, so the
        clock ends bit for bit where per-charge advances leave it.  A cache
        hit is one ``get``; a miss is :meth:`GrDBStorage._fetch_block`.
        """
        fmt, cpu, clock, storage = self.fmt, self.cpu, self.clock, self.storage
        get, fetch = storage.cache.get, storage._fetch_block
        layout, compress, decode = fmt._subblock_layout, fmt.compress, fmt.decode_subblock
        nlevels, bound = len(layout), storage.chain_bound()
        sub_s, decode_s = cpu.grdb_subblock_seconds, cpu.varint_decode_seconds
        edge_s = cpu.edge_visit_seconds
        locals_, owned = self.id_map.to_local_many(np.asarray(vertices, dtype=np.int64))
        out = []  # raw: one slot-byte string per vertex; compressed: decoded arrays
        now = clock.now
        requests = edges = 0
        try:
            for local, mine in zip(locals_.tolist(), owned.tolist()):
                parts = []
                n = 0
                level, sb, hops = 0, local, 1
                while mine:
                    if not compress:
                        now += sub_s
                    # Pointers come from disk: address checks as subblock_span's.
                    if not 0 <= level < nlevels:
                        raise GraphStorageException(f"level {level} out of range")
                    if sb < 0:
                        raise GraphStorageException(f"negative sub-block index {sb}")
                    k, nbytes = layout[level]
                    block, at = divmod(sb, k)
                    start = at * nbytes
                    stop = start + nbytes
                    data = get((level, block))
                    if data is None:
                        clock.advance_to(now)
                        data = fetch(level, block)
                        now = clock.now
                    if compress:
                        values, tail, consumed = decode(data[start:stop])
                        now += sub_s + consumed * decode_s
                        parts.append(values)
                        n += len(values)
                        more = is_pointer(tail)
                    else:
                        end = stop - SLOT_BYTES
                        tail = int.from_bytes(data[end:stop], "little")
                        more = is_pointer(tail)
                        parts.append(data[start : end if more else stop])
                    if not more:
                        break
                    level, sb = decode_pointer(tail)
                    hops += 1
                    if hops > bound:
                        raise GraphStorageException(
                            f"pointer cycle in chain of local vertex {local}"
                        )
                if compress:
                    out += parts
                elif parts:
                    # Counts aligned words, so exact for any bytes (EMPTY_SLOT
                    # is all ones: byte order does not matter); array's count
                    # is the cheaper on short lists, one numpy compare on long.
                    raw = b"".join(parts)
                    words = len(raw) // SLOT_BYTES
                    if words <= _ARRAY_COUNT_WORDS:
                        n = words - array("Q", raw).count(EMPTY_SLOT)
                    else:
                        n = int(np.count_nonzero(np.frombuffer(raw, dtype="<u8") != EMPTY_SLOT))
                    out.append(raw)
                if account:
                    requests += 1
                    edges += n
                    now += n * edge_s
        finally:
            clock.advance_to(now)
            self.stats.adjacency_requests += requests
            self.stats.edges_scanned += edges
        if not out:
            return _EMPTY
        if compress:
            return np.concatenate(out).astype(np.int64)
        flat = np.frombuffer(b"".join(out), dtype="<u8")
        return flat[flat != EMPTY_SLOT].astype(np.int64)

    # -- batched fringe expansion (vectored I/O all the way down) ---------------------

    def _expand_fringe(self, vertices) -> np.ndarray:
        """Expand a whole fringe through the coalescing batch planner.

        Instead of walking each vertex's chain independently (one sub-block
        read at a time, scattered across files — :meth:`_walk_chains`, the
        plan with ``batch_io`` off), the batched path resolves
        the fringe level-synchronously: every round collects the chain
        addresses all still-walking vertices need next, sorts them by
        ``(level, file, offset)`` — the global block index orders exactly
        that way — fetches the distinct blocks through the cache with
        adjacent misses coalesced into single vectored device reads, then
        decodes each block once and gathers every requested sub-block from
        it.  Pointer targets are re-sorted each round, so chained sub-blocks
        also coalesce.  Output order is byte-identical to the per-vertex
        path: each vertex's neighbors appear in chain order, vertices in
        fringe order.
        """
        if not self.batch_io:
            return self._walk_chains(vertices)
        self.stats.adjacency_requests += len(vertices)
        locals_, owned = self.id_map.to_local_many(vertices)
        neighbors, _ = self._resolve_chains(locals_[owned])
        self.stats.edges_scanned += len(neighbors)
        self.clock.advance(len(neighbors) * self.cpu.edge_visit_seconds)
        return neighbors

    def _read_frames(
        self, level: int, subs: np.ndarray, held: dict[int, bytes] | None = None
    ) -> tuple[np.ndarray, int]:
        """Sub-blocks ``subs`` of ``level`` as the rows of one ``(n,
        subblock_bytes)`` uint8 matrix, and the number of distinct blocks
        batch-read for them (see :meth:`GrDBStorage.read_subblocks`)."""
        blocks, image, rows = self.storage.read_subblocks(level, subs, held)
        return image[rows], len(blocks)

    def _read_run(self, level: int, subs: np.ndarray):
        """One run of either chain walk: batch-read the blocks holding
        sub-blocks ``subs`` of ``level`` (address order), charge one full
        address+decode per distinct block, and return the rows of ``subs``
        as one :meth:`GrDBFormat.decode_subblocks` call over them would.
        The gathers riding on the parsed blocks are the caller's
        :meth:`_charge_gathers`.

        Compressed rows come from the decoded-block memo
        (:meth:`_decoded_rows`); if a block it has to decode is damaged
        anywhere, the requested rows alone are decoded, so the same row
        raises (or a request beside a damaged sibling answers) as before.
        Raw rows decode by a reshape and bypass the memo."""
        held: dict[int, bytes] = {}
        blocks, image, rows = self.storage.read_subblocks(level, subs, held)
        self.clock.advance(len(blocks) * self.cpu.grdb_subblock_seconds)
        if self.fmt.compress:
            try:
                return self._decoded_rows(level, blocks, held, image, rows)
            except GraphStorageException:
                pass
        return self.fmt.decode_subblocks(level, subs, image[rows])

    def _decoded_rows(
        self,
        level: int,
        blocks: list[int],
        held: dict[int, bytes],
        image: np.ndarray,
        rows: np.ndarray,
    ):
        """:meth:`_read_run`'s compressed decode through the memo.

        ``self._decoded[level]`` maps a block to the bytes it last decoded
        for that block, the values of all the block's sub-blocks in row
        order (uint32 where they fit, else uint64) and their consumed
        varint bytes (int32), as read-only copies.  A fetched block whose
        bytes are the entry's (``is``, then ``==``) reuses it; any other
        bytes — a write, a fault, a block not seen before — drop the entry
        and are decoded whole, all the stale blocks in one codec call, and
        what decodes becomes the new entry.  Entries exist only for blocks
        the store has written, so the memo is bounded by the store, not by
        the cache.  Counts and tail words are read off the frames' headers
        and tails, which are the decoded bytes'.  Raises what the decode
        raises, leaving no entry for the stale blocks.
        """
        memo = self._decoded[level]
        entries = []
        stale = []  # ordinals into ``blocks`` whose bytes the memo lacks
        for i, block in enumerate(blocks):
            data = held[block]
            entry = memo.get(block)
            if entry is not None and entry[0] is not data:
                if entry[0] == data:
                    entry = memo[block] = (data, *entry[1:])  # keep the object just fetched
                else:
                    del memo[block]
                    entry = None
            if entry is None:
                stale.append(i)
            entries.append(entry)
        k = self.fmt.subblocks_per_block(level)
        if stale:
            frames = image.reshape(len(blocks), k, -1)[stale].reshape(len(stale) * k, -1)
            subs = (np.array(blocks)[stale, None] * k + np.arange(k)).ravel()
            values, offsets, _, consumed = self.fmt.decode_subblocks(level, subs, frames)
            firsts = offsets[::k]  # each stale block's first value, then the total
            if len(values) and values.max() <= np.iinfo(np.uint32).max:
                values = values.astype(np.uint32)  # half the memo's largest part
            consumed = consumed.astype(np.int32)
            written = self.storage._written_blocks
            for j, i in enumerate(stale):
                vals = values[firsts[j] : firsts[j + 1]].copy()
                used = consumed[j * k : (j + 1) * k].copy()
                vals.flags.writeable = used.flags.writeable = False
                entries[i] = (held[blocks[i]], vals, used)
                if (level, blocks[i]) in written:
                    memo[blocks[i]] = entries[i]
        counts, tails, _ = self.fmt.frame_columns(image)
        if len(entries) == 1:
            values, consumed = entries[0][1:]
        else:
            values = np.concatenate([entry[1] for entry in entries])
            consumed = np.concatenate([entry[2] for entry in entries])
        starts = np.cumsum(counts) - counts
        values, offsets = gather_segments(values, starts[rows], counts[rows])
        values = values.astype(np.uint64, copy=False)
        return values, offsets, tails[rows], consumed[rows].astype(np.int64)

    def _charge_gathers(self, consumed: np.ndarray) -> None:
        """The marginal batched cost of each gathered sub-block plus its
        decoded varint bytes, one charge per sub-block in the order given
        (summing first would change float rounding)."""
        costs = consumed * self.cpu.varint_decode_seconds
        self.clock.advance_each(self.cpu.grdb_batch_subblock_seconds + costs)

    def _resolve_chains(self, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Walk the chains rooted at level-0 sub-blocks ``heads`` together.

        Returns ``(neighbors, offsets)``: chain ``i``'s neighbors, in chain
        order, are ``neighbors[offsets[i]:offsets[i + 1]]``.  Each round
        sorts the pending ``(level, sub-block, owner)`` arrays by address,
        fetches every level's distinct blocks in one batch, and decodes all
        of a level's sub-blocks in one codec call (:meth:`_read_run`); the
        round's per-sub-block charges follow in the order of the address
        sort.  The top-down plan: complete lists in fringe order, so every
        round's segments are held and stitched by owner at the end.
        """
        sb = np.asarray(heads, dtype=np.int64)
        nchains = len(sb)
        if nchains == 0:
            return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        level = np.zeros(nchains, dtype=np.int64)
        owner = np.arange(nchains)
        # One entry per (round, level): who owns each decoded segment, how
        # long it is, and the values themselves.
        seg_owner, seg_len, seg_values = [], [], []
        rounds, bound = 0, self.storage.chain_bound()
        while len(owner):
            rounds += 1
            if rounds > bound:
                raise GraphStorageException("pointer cycle during batched chain resolution")
            order = np.lexsort((sb, level))  # stable: duplicate heads keep fringe order
            level, sb, owner = level[order], sb[order], owner[order]
            levels, starts = np.unique(level, return_index=True)
            bounds = [*starts.tolist(), len(sb)]
            tails, consumed = [], []
            for lv, lo, hi in zip(levels.tolist(), bounds, bounds[1:]):
                values, offsets, tail, used = self._read_run(lv, sb[lo:hi])
                seg_owner.append(owner[lo:hi])
                seg_len.append(np.diff(offsets))
                seg_values.append(values)
                tails.append(tail)
                consumed.append(used)
            self._charge_gathers(np.concatenate(consumed))
            more, level, sb = split_pointers(np.concatenate(tails))
            owner = owner[more]
        # Segments sit round by round in address order; one stable sort by
        # owner puts each chain's segments together, still in chain order.
        owners, lens, values = map(np.concatenate, (seg_owner, seg_len, seg_values))
        order = np.argsort(owners, kind="stable")
        values, bounds = gather_segments(values, (np.cumsum(lens) - lens)[order], lens[order])
        offsets = bounds[np.searchsorted(owners[order], np.arange(nchains + 1))]
        return values.view(np.int64), offsets

    # -- storage-order scan (bottom-up BFS access plan) -------------------------------

    def _scan_adjacency(self, vertices=None, done=None):
        """The bottom-up plan: sweep the wanted chains level-synchronously,
        every block once, yielding each list in pieces.

        All wanted chains walk together.  A round sorts the pending
        ``(level, sub-block)`` addresses, cuts each level into runs of at
        most ``max(4, cache capacity)`` distinct blocks — the unit the pool
        counts in — and yields a run's sub-blocks as one batch the moment
        :meth:`_read_run` decoded them: nothing is held but one run of
        frames and three words per walking chain.  A vertex's pieces arrive
        one per round, in chain order; at every round boundary the chains
        of ``done`` vertices are dropped, their further sub-blocks never
        read.  Sub-block addressing/decoding CPU is charged here; per-edge
        claim checks are the caller's (early-exit accounting).
        """
        if vertices is None:
            gids = self._local_vertices()
        else:
            gids = np.unique(np.asarray(vertices, dtype=np.int64))
        sb, owned = self.id_map.to_local_many(gids)
        gids, sb = gids[owned], sb[owned]
        level = np.zeros(len(gids), dtype=np.int64)
        budget = max(4, self.storage.cache.capacity)
        rounds = heard = 0  # ``heard``: entries of ``done`` already applied
        while len(gids):
            rounds += 1
            # Per round: a caller may store between two batches of the sweep.
            if rounds > self.storage.chain_bound():
                raise GraphStorageException("pointer cycle during the storage-order sweep")
            if done is not None and len(done) > heard:
                live = ~np.isin(gids, np.concatenate(done[heard:]))
                heard = len(done)
                gids, level, sb = gids[live], level[live], sb[live]
                if not len(gids):
                    return
            order = np.lexsort((sb, level))
            gids, level, sb = gids[order], level[order], sb[order]
            levels, starts = np.unique(level, return_index=True)
            bounds = [*starts.tolist(), len(sb)]
            tails = []
            for lv, lo, hi in zip(levels.tolist(), bounds, bounds[1:]):
                block = sb[lo:hi] // self.fmt.subblocks_per_block(lv)
                nth = np.cumsum(np.diff(block, prepend=block[0]) != 0)  # distinct-block ordinal
                cuts = (lo + 1 + np.flatnonzero(np.diff(nth // budget))).tolist()
                for a, b in zip([lo, *cuts], [*cuts, hi]):
                    values, offsets, tail, used = self._read_run(lv, sb[a:b])
                    self._charge_gathers(used)
                    tails.append(tail)
                    batch = AdjacencyBatch.nonempty(gids[a:b], offsets, values.view(np.int64))
                    if len(batch):
                        yield batch
            more, level, sb = split_pointers(np.concatenate(tails))
            gids = gids[more]

    # -- maintenance ------------------------------------------------------------------

    def _rebuild_known_locals(self) -> None:
        """Rebuild the census at open: the occupied level-0 sub-blocks name
        the stored vertices, and one chain sweep of those counts their
        entries."""
        k = self.fmt.subblocks_per_block(0)
        level0 = sorted(b for lvl, b in self.storage._written_blocks if lvl == 0)
        subblocks = (np.array(level0, dtype=np.int64)[:, None] * k + np.arange(k)).ravel()
        if len(subblocks) == 0:
            return
        frames, _ = self._read_frames(0, subblocks)
        if self.fmt.compress:
            # Occupied iff it stores neighbors or continues a chain (a
            # count-0 head whose first neighbor spilled); the frame header
            # and tail word say so without decoding the varint stream.
            counts, tails, _ = self.fmt.frame_columns(frames)
            occupied = (counts > 0) | split_pointers(tails)[0]
        else:
            occupied = (frames.view("<u8") != EMPTY_SLOT).any(axis=1)
        self._grow_memo(int(subblocks[-1]) + 1)
        self._census_from_storage(self.id_map.to_global_many(subblocks[occupied]))

    def chain_of(self, vertex: int) -> list[tuple[int, int]]:
        """The (level, sub-block) chain of ``vertex`` — for tests/defrag."""
        return list(self._walk(self.id_map.to_local(vertex))[0])

    def invalidate_tail_memo(self, vertex: int | None = None) -> None:
        if vertex is None:
            self._memo[:, _LEVEL] = -1
        elif (local := self.id_map.to_local(vertex)) < len(self._memo):
            self._memo[local, _LEVEL] = -1

    def flush(self) -> None:
        self.storage.flush()

    def close(self) -> None:
        self._decoded = [{} for _ in self._decoded]
        try:
            super().close()
        finally:
            self.storage.close()

    def commit_token(self) -> int | None:
        root = self.storage.wal_root
        return None if root is None else root.seq

    @property
    def cache_stats(self):
        return self.storage.cache.stats
