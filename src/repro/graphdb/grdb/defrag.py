"""Background defragmentation of link-policy chains (§3.4.1).

The link growth policy "creates fragmentation in the adjacency list"; the
paper proposes that "during 'idle' time, the grDB service can defragment
these multi-level adjacency lists in the background".  This module
implements that compaction: a fragmented chain

    L0[d0-1 entries, ptr] -> L1[d1-1, ptr] -> L2[...] -> ...

is rewritten as the minimal two-hop layout

    L0[d0-1 entries, ptr] -> Lk[everything else]

where ``k`` is the smallest level whose sub-block holds the remainder
(falling back to a chain of top-level sub-blocks for extreme hubs).  All
abandoned sub-blocks return to the per-level free lists.
"""

from __future__ import annotations

import numpy as np

from ...util.varint import split_sorted_fit
from .db import GrDB
from .format import COMPRESSED_COUNT_CAP, EMPTY_SLOT, encode_pointer

__all__ = ["defragment_vertex", "defragment", "chain_length"]


def chain_length(db: GrDB, vertex: int) -> int:
    """Number of sub-blocks in ``vertex``'s chain."""
    return len(db.chain_of(vertex))


def defragment_vertex(db: GrDB, vertex: int) -> bool:
    """Compact one vertex's chain; returns True if a rewrite happened."""
    local = db.id_map.to_local(vertex)
    path, _used = db._walk(local)
    if len(path) <= 2 and _is_compact(db, path):
        return False
    if db.fmt.compress:
        return _defragment_vertex_compressed(db, local, path)
    neighbors = db._get_adjacency(vertex)
    caps = db.fmt.capacities
    top = db.fmt.num_levels - 1

    # Free everything beyond the level-0 anchor.
    for level, sb in path[1:]:
        db.storage.free_subblock(level, sb)

    d0 = caps[0]
    l0 = db.fmt.parse_slots(db.fmt.empty_subblock(0)).copy()
    if len(neighbors) <= d0:
        l0[: len(neighbors)] = neighbors.astype("<u8")
        db._write_slots(0, local, l0)
        db._remember(local, [(0, local)], len(neighbors))
        return True

    head, rest = neighbors[: d0 - 1], neighbors[d0 - 1 :]
    l0[: d0 - 1] = head.astype("<u8")
    new_path = [(0, local)]

    # Smallest level whose sub-block holds the whole remainder...
    target = next((lv for lv in range(1, top + 1) if caps[lv] >= len(rest)), None)
    if target is not None:
        sb = db.storage.allocate_subblock(target)
        slots = db.fmt.parse_slots(db.fmt.empty_subblock(target)).copy()
        slots[: len(rest)] = rest.astype("<u8")
        db._write_slots(target, sb, slots)
        l0[d0 - 1] = encode_pointer(target, sb)
        new_path.append((target, sb))
        used = len(rest)
    else:
        # ...or a chain of top-level sub-blocks for extreme hubs.
        cap = caps[top]
        pos = 0
        prev_slots, prev_loc = l0, (0, local)
        prev_ptr_slot = d0 - 1
        while pos < len(rest):
            sb = db.storage.allocate_subblock(top)
            remaining = len(rest) - pos
            terminal = remaining <= cap
            take = remaining if terminal else cap - 1
            slots = db.fmt.parse_slots(db.fmt.empty_subblock(top)).copy()
            slots[:take] = rest[pos : pos + take].astype("<u8")
            prev_slots[prev_ptr_slot] = encode_pointer(top, sb)
            db._write_slots(*prev_loc, prev_slots)
            new_path.append((top, sb))
            prev_slots, prev_loc, prev_ptr_slot = slots, (top, sb), cap - 1
            pos += take
            used = take
        db._write_slots(*prev_loc, prev_slots)
        db._remember(local, new_path, used)
        return True

    db._write_slots(0, local, l0)
    db._remember(local, new_path, used)
    return True


def _defragment_vertex_compressed(db: GrDB, local: int, path) -> bool:
    """Compact one compressed chain.

    The whole multiset is gathered, re-sorted, and re-framed greedily: the
    level-0 anchor takes the longest unique prefix its payload budget
    holds, then each further hop goes to the smallest level whose budget
    holds *everything* still pending (top level otherwise — extreme hubs,
    or duplicate occurrences that by construction need one sub-block each).
    """
    neighbors = db._get_adjacency(db.id_map.to_global(local))
    for level, sb in path[1:]:
        db.storage.free_subblock(level, sb)
    top = db.fmt.num_levels - 1
    pending = np.sort(neighbors.astype("<u8"), kind="stable")
    fit, pending = split_sorted_fit(
        pending, db.fmt.payload_bytes(0), COMPRESSED_COUNT_CAP
    )
    new_path = [(0, local)]
    prev = (0, local, fit)
    while len(pending):
        target = top
        for lv in range(1, top + 1):
            _, spill = split_sorted_fit(
                pending, db.fmt.payload_bytes(lv), COMPRESSED_COUNT_CAP
            )
            if len(spill) == 0:
                target = lv
                break
        fit, pending = split_sorted_fit(
            pending, db.fmt.payload_bytes(target), COMPRESSED_COUNT_CAP
        )
        sb = db.storage.allocate_subblock(target)
        plevel, psb, pvals = prev
        db._write_compressed(plevel, psb, pvals, encode_pointer(target, sb))
        new_path.append((target, sb))
        prev = (target, sb, fit)
    plevel, psb, pvals = prev
    db._write_compressed(plevel, psb, pvals, EMPTY_SLOT)
    db._remember(local, new_path, len(pvals))
    return True


def _is_compact(db: GrDB, path: list[tuple[int, int]]) -> bool:
    """A chain is compact if it has no intermediate partially-wasted hops."""
    if len(path) == 1:
        return True
    # Two-hop chains are compact only if the tail is the sole continuation,
    # which _walk already guarantees; deeper chains are never compact.
    return len(path) == 2


def defragment(db: GrDB, vertices=None) -> int:
    """Compact the chains of ``vertices`` (default: all known); returns the
    number of vertices rewritten."""
    if vertices is None:
        vertices = db.local_vertices()
    rewritten = 0
    for v in vertices:
        if defragment_vertex(db, int(v)):
            rewritten += 1
    return rewritten
