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
sub-blocks, so arbitrarily large hubs are storable.
"""

from __future__ import annotations

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
_SEEN, _LEVEL, _SB, _FILL, _PLEVEL, _PSB = range(6)

_EMPTY = np.empty(0, dtype=np.int64)


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
        # Ingestion memo, one row per local id (grown by doubling): has the
        # vertex stored edges; its chain tail (level, sub-block), level -1 =
        # unknown; the tail's used slots (raw format); the tail's parent
        # (what ``move`` repoints, level -1 = the tail is the head).  Purely
        # an in-memory accelerator; the on-disk chain is always
        # authoritative and re-walkable.
        self._memo = np.zeros((0, 6), dtype=np.int64)
        self.restored = self.storage.restore()
        if self.restored:
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
        while True:
            level, sb = path[-1]
            if self.fmt.compress:
                values, last = self._read_compressed(level, sb)
            else:
                slots = self._read_slots(level, sb)
                last = int(slots[-1])
            if is_pointer(last):
                nxt = decode_pointer(last)
                if len(path) > self.fmt.num_levels + 64:
                    raise GraphStorageException(f"pointer cycle in chain of local vertex {local}")
                path.append(nxt)
            elif self.fmt.compress:
                return path, len(values)
            else:
                used = int(np.count_nonzero(slots != EMPTY_SLOT))
                return path, used

    def _grow_memo(self, size: int) -> None:
        have = len(self._memo)
        if size > have:
            memo = np.zeros((max(size, 2 * have), 6), dtype=np.int64)
            memo[:, (_LEVEL, _PLEVEL)] = -1
            memo[:have] = self._memo
            self._memo = memo

    def _tail_info(self, local: int) -> tuple[list[tuple[int, int]], int]:
        """``local``'s chain tail, preceded by its parent if it has one, and
        the tail's fill — memoised, from :meth:`_walk` the first time."""
        _, level, sb, used, plevel, psb = self._memo[local].tolist()
        if level < 0:
            path, used = self._walk(local)
            self._remember(local, path, used)
            return path, used
        return ([(plevel, psb)] if plevel >= 0 else []) + [(level, sb)], used

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
        self._memo[locals_, _SEEN] = 1
        bounds = np.append(starts, len(srcs))
        if self.fmt.compress:
            self._append_window(locals_, bounds, dsts.astype(np.uint64))
            return
        for local, lo, hi in zip(locals_.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            self._append(local, dsts[lo:hi])

    def _append(self, local: int, new: np.ndarray) -> None:
        path, used = self._tail_info(local)
        level, sb = path[-1]
        slots = self._read_slots(level, sb).copy()
        caps = self.fmt.capacities
        top = self.fmt.num_levels - 1
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
            # Tail is full; grow the chain.
            if self.growth_policy == "move" and 1 <= level < top:
                # Copy the whole sub-block one level up, free it, repoint parent.
                tgt = level + 1
                nsb = self.storage.allocate_subblock(tgt)
                nslots = self.fmt.parse_slots(self.fmt.empty_subblock(tgt)).copy()
                nslots[:cap] = slots[:cap]
                self.storage.free_subblock(level, sb)
                plevel, psb = path[-2]
                pslots = self._read_slots(plevel, psb).copy()
                pslots[caps[plevel] - 1] = encode_pointer(tgt, nsb)
                self._write_slots(plevel, psb, pslots)
                path[-1] = (tgt, nsb)
                level, sb, slots = tgt, nsb, nslots
            else:
                # Link: displace the last entry into a new higher-level
                # sub-block and leave a pointer behind.
                tgt = min(level + 1, top)
                nsb = self.storage.allocate_subblock(tgt)
                displaced = slots[cap - 1]
                slots[cap - 1] = encode_pointer(tgt, nsb)
                self._write_slots(level, sb, slots)
                nslots = self.fmt.parse_slots(self.fmt.empty_subblock(tgt)).copy()
                nslots[0] = displaced
                used = 1
                path.append((tgt, nsb))
                level, sb, slots = tgt, nsb, nslots
        self._write_slots(level, sb, slots)
        self._remember(local, path, used)

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
        hops = 0
        while len(walking):
            hops += 1
            if hops > fmt.num_levels + 64:
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
        """
        fmt, cpu, clock, stats = self.fmt, self.cpu, self.clock, self.stats
        read_block, span = self.storage._read_block, fmt.subblock_span
        sub_s, decode_s = cpu.grdb_subblock_seconds, cpu.varint_decode_seconds
        edge_s = cpu.edge_visit_seconds
        fringe = np.asarray(vertices, dtype=np.int64)
        locals_, owned = self.id_map.to_local_many(fringe)
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
        address+decode per distinct block, decode them in one codec call
        (returns :meth:`GrDBFormat.decode_subblocks`' tuple).  The gathers
        riding on the parsed blocks are the caller's :meth:`_charge_gathers`."""
        frames, nblocks = self._read_frames(level, subs)
        self.clock.advance(nblocks * self.cpu.grdb_subblock_seconds)
        return self.fmt.decode_subblocks(level, subs, frames)

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
        rounds = 0
        while len(owner):
            rounds += 1
            if rounds > 1 << 20:
                raise GraphStorageException("runaway chain during batched chain resolution")
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
            if rounds > 1 << 20:
                raise GraphStorageException("runaway chain during the storage-order sweep")
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
        """Recover the set of stored vertices by scanning level-0 blocks."""
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
        self._memo[subblocks[occupied], _SEEN] = 1

    def chain_of(self, vertex: int) -> list[tuple[int, int]]:
        """The (level, sub-block) chain of ``vertex`` — for tests/defrag."""
        return list(self._walk(self.id_map.to_local(vertex))[0])

    def _local_vertices(self) -> np.ndarray:
        return np.sort(self.id_map.to_global_many(np.flatnonzero(self._memo[:, _SEEN])))

    def invalidate_tail_memo(self, vertex: int | None = None) -> None:
        if vertex is None:
            self._memo[:, _LEVEL] = -1
        elif (local := self.id_map.to_local(vertex)) < len(self._memo):
            self._memo[local, _LEVEL] = -1

    def flush(self) -> None:
        self.storage.flush()

    @property
    def cache_stats(self):
        return self.storage.cache.stats
