"""Conservative discrete-event scheduler over rank coroutines.

Each simulated rank is a Python generator.  Local work (CPU, disk) advances
the rank's own :class:`VirtualClock` directly and needs no scheduler
involvement; only *communication* yields control.  The yield protocol is:

``("recv", source, tag)``
    Block until a matching message can be *safely* delivered; the scheduler
    resumes the generator with the :class:`Message` and advances the rank's
    clock to ``max(clock, msg.arrival)``.

``("probe", source, tag)``
    Ask whether a matching message has arrived by the rank's current clock.
    The scheduler resumes with the earliest such :class:`Message` (not
    consumed) or ``None`` — but only once it can *prove* the answer, i.e.
    once no other rank can still inject an earlier-arriving match.

Safety argument (conservative PDES).  Any future message is created by some
rank after it next runs, so its arrival strictly exceeds that rank's *lower
bound* ``lb``: the local clock for a rank that has not run yet or is
probing (a probe waits for proof of absence, not for messages), ``max(clock,
earliest matching arrival)`` for a rank blocked on a recv that has a match,
and ``+inf`` for a recv without one (its next action is causally after
another rank's, whose bound is already in the minimum).  Delivering ``m`` to
``r`` is safe iff ``m.arrival <= min(lb[x] for x != r)``; a probe may answer
"absent" once that same minimum reaches the prober's clock.  The event order
is the total order of the keys ``(lb, kind priority, rank index)``, kinds
being first run < recv < probe.

Smallest-key lemma.  The rank holding the smallest key may always act, so
eligibility is never computed: a recv's match arrives no later than the
rank's own bound, which is ``<=`` every other bound; a probe holding the
smallest clock already has its proof of absence; a first run needs none.
The run loop is therefore a priority queue of keys, ``+inf`` keys left out:
pop the smallest, resume that rank, repeat — deadlock is an empty queue with
ranks still alive.  Clocks and mailboxes change only under the rank that is
running, so a key changes at exactly two sites: ``_resume`` files the key of
the rank it just stepped, and ``post`` re-files a recv-blocked destination
whose bound the new message lowers.  Both push a fresh tuple and leave the
old one in the heap; an entry is live iff it *is* its rank's ``key`` (lazy
invalidation).  Mailboxes are per-tag lists in ``(arrival, seq)`` order.
"""

from __future__ import annotations

import enum
from bisect import insort
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Generator

from ..util.errors import DeadlockError, SimulationError
from .message import ANY, Message

__all__ = ["Scheduler", "RankState"]

_mailbox_order = attrgetter("arrival", "seq")


class RankState(enum.Enum):
    """Lifecycle state of one simulated rank."""

    RUNNABLE = "runnable"
    BLOCKED_RECV = "blocked_recv"
    BLOCKED_PROBE = "blocked_probe"
    DONE = "done"
    FAILED = "failed"



class _Rank:
    __slots__ = (
        "index", "gen", "clock", "state", "wait_source", "wait_tag",
        "mailbox", "key", "result",
    )

    def __init__(self, index: int, gen: Generator, clock):
        self.index = index
        self.gen = gen
        self.clock = clock  # VirtualClock
        self.state = RankState.RUNNABLE
        self.wait_source = ANY
        self.wait_tag = ANY
        self.mailbox: dict[int, list[Message]] = {}  # tag -> (arrival, seq)-sorted
        self.key: tuple | None = None  # the live heap entry, None = +inf
        self.result: Any = None


class Scheduler:
    """Runs a set of rank generators to completion in virtual time."""

    def __init__(self, clocks, max_steps: int = 50_000_000):
        self._ranks: list[_Rank] = []
        self._clocks = list(clocks)
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._max_steps = max_steps
        self._total_steps = 0

    # -- wiring ---------------------------------------------------------

    @property
    def nranks(self) -> int:
        return len(self._clocks)

    def add_rank(self, gen: Generator) -> None:
        idx = len(self._ranks)
        if idx >= len(self._clocks):
            raise SimulationError("more rank programs than clocks")
        self._ranks.append(_Rank(idx, gen, self._clocks[idx]))

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def post(self, msg: Message) -> None:
        """Enqueue a message for its destination (called by Comm.send)."""
        if not 0 <= msg.dest < len(self._ranks):
            raise SimulationError(f"message to invalid rank {msg.dest}")
        dest = self._ranks[msg.dest]
        box = dest.mailbox.setdefault(msg.tag, [])
        if box and box[-1].arrival > msg.arrival:
            insort(box, msg, key=_mailbox_order)
        else:  # seq only grows, so appending keeps (arrival, seq) order
            box.append(msg)
        if (
            dest.state is RankState.BLOCKED_RECV
            and dest.wait_tag in (ANY, msg.tag)
            and dest.wait_source in (ANY, msg.source)
        ):
            when = max(dest.clock.now, msg.arrival)
            if dest.key is None or when < dest.key[0]:
                self._file(dest, when, 1)

    def consume(self, rank_index: int, msg: Message) -> None:
        """Remove a specific message from a mailbox (used after probe)."""
        mailbox = self._ranks[rank_index].mailbox
        box = mailbox[msg.tag]
        box.remove(msg)
        if not box:
            del mailbox[msg.tag]

    # -- the event loop ---------------------------------------------------

    def _file(self, rank: _Rank, when: float, kind: int) -> None:
        rank.key = key = (when, kind, rank.index)
        heappush(self._heap, key)

    @staticmethod
    def _earliest_match(rank: _Rank) -> Message | None:
        source, tag = rank.wait_source, rank.wait_tag
        if tag == ANY:
            boxes = rank.mailbox.values()
        else:
            boxes = (rank.mailbox.get(tag, ()),)
        best = None
        for box in boxes:
            for m in box:
                if source == ANY or m.source == source:
                    if best is None or _mailbox_order(m) < _mailbox_order(best):
                        best = m
                    break
        return best

    def _resume(self, rank: _Rank) -> None:
        """Hand ``rank`` what it waited for, run it to its next yield (or
        completion) and file its new key."""
        value = None
        if rank.state is RankState.BLOCKED_RECV:
            value = self._earliest_match(rank)
            self.consume(rank.index, value)
            rank.clock.advance_to(value.arrival)
        elif rank.state is RankState.BLOCKED_PROBE:
            hit = self._earliest_match(rank)
            if hit is not None and hit.arrival <= rank.clock.now:
                value = hit
        self._total_steps += 1
        if self._total_steps > self._max_steps:
            raise SimulationError(f"scheduler exceeded {self._max_steps} steps; runaway program?")
        rank.state = RankState.RUNNABLE  # what it posts to itself must not re-file it
        rank.key = None
        try:
            effect = rank.gen.send(value)
        except StopIteration as stop:
            rank.state = RankState.DONE
            rank.result = stop.value
            return
        if not (isinstance(effect, tuple) and len(effect) == 3 and effect[0] in ("recv", "probe")):
            rank.state = RankState.FAILED
            raise SimulationError(
                f"rank {rank.index} yielded invalid effect {effect!r}; "
                "expected ('recv'|'probe', source, tag)"
            )
        kind, source, tag = effect
        rank.wait_source = int(source)
        rank.wait_tag = int(tag)
        if kind == "probe":
            rank.state = RankState.BLOCKED_PROBE
            self._file(rank, rank.clock.now, 2)
        else:
            rank.state = RankState.BLOCKED_RECV
            match = self._earliest_match(rank)
            if match is not None:
                self._file(rank, max(rank.clock.now, match.arrival), 1)

    def run(self) -> list[Any]:
        """Run all ranks to completion; returns their return values.

        If a rank program raises (or the run deadlocks), every unfinished
        generator is closed, in rank order, before the exception leaves:
        their ``finally`` blocks run here, not whenever the traceback that
        keeps them alive happens to be dropped.
        """
        ranks, heap = self._ranks, self._heap
        for rank in ranks:
            self._file(rank, rank.clock.now, 0)
        try:
            while heap:
                key = heappop(heap)
                rank = ranks[key[2]]
                if rank.key is key:
                    self._resume(rank)
            blocked = {
                r.index: (r.state.value, r.wait_source, r.wait_tag)
                for r in ranks
                if r.state is not RankState.DONE
            }
            if blocked:
                raise DeadlockError(f"simulation deadlock; blocked ranks: {blocked}")
        except BaseException:
            for rank in ranks:
                rank.gen.close()
            raise
        return [r.result for r in ranks]
