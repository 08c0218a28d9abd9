"""The executable specification of the simulator's event order (tests only).

This is ``repro.simcluster.scheduler`` as it stood before PR 21, verbatim but
for this paragraph and the two absolute imports: every event rebuilds every
rank's lower bound, lists the eligible actions, sorts them and runs the
first.  O(P^2) per event and obviously the rule; the production scheduler
must resume the same ranks, at the same clocks, with the same messages.
``repro.simcluster.cluster`` looks ``Scheduler`` up by module-global name,
so ``tests/test_event_order.py`` swaps this class in there.  What follows is
the original module docstring.

Conservative discrete-event scheduler over rank coroutines.

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
bound* ``lb``: the local clock for a runnable rank, ``max(clock, earliest
candidate arrival)`` for a rank blocked on a deliverable recv, and ``+inf``
for ranks that cannot act until someone else does (their first action is
causally after another rank's, whose bound is already in the minimum, or
after the very delivery being justified).  A recv delivery of message ``m``
to rank ``r`` is eligible iff ``m.arrival <= min(lb[x] for x != r)``; a
probe answers ``False`` once that same minimum reaches the prober's clock.
The run loop always executes the eligible action with the smallest event
time (ties broken by kind then rank), which yields a fully deterministic,
causally-ordered simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.util.errors import DeadlockError, SimulationError
from repro.simcluster.message import ANY, Message

__all__ = ["Scheduler", "RankState"]

_INF = float("inf")


class RankState(enum.Enum):
    """Lifecycle state of one simulated rank."""

    RUNNABLE = "runnable"
    BLOCKED_RECV = "blocked_recv"
    BLOCKED_PROBE = "blocked_probe"
    DONE = "done"
    FAILED = "failed"


@dataclass
class _Rank:
    index: int
    gen: Generator
    clock: Any  # VirtualClock
    state: RankState = RankState.RUNNABLE
    wait_source: int = ANY
    wait_tag: int = ANY
    mailbox: list[Message] = field(default_factory=list)
    result: Any = None
    send_value: Any = None  # value to send into the generator on next step
    steps: int = 0


class Scheduler:
    """Runs a set of rank generators to completion in virtual time."""

    def __init__(self, clocks, max_steps: int = 50_000_000):
        self._ranks: list[_Rank] = []
        self._clocks = list(clocks)
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
        self._ranks.append(_Rank(index=idx, gen=gen, clock=self._clocks[idx]))

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def post(self, msg: Message) -> None:
        """Enqueue a message for its destination (called by Comm.send)."""
        if not 0 <= msg.dest < len(self._ranks):
            raise SimulationError(f"message to invalid rank {msg.dest}")
        box = self._ranks[msg.dest].mailbox
        box.append(msg)
        # Keep mailbox ordered by (arrival, seq) for deterministic matching.
        if len(box) > 1 and (box[-2].arrival, box[-2].seq) > (msg.arrival, msg.seq):
            box.sort(key=lambda m: (m.arrival, m.seq))

    # -- matching helpers -------------------------------------------------

    @staticmethod
    def _earliest_match(rank: _Rank, source: int, tag: int) -> Message | None:
        for m in rank.mailbox:  # mailbox is (arrival, seq)-sorted
            if m.matches(source, tag):
                return m
        return None

    def _lower_bound(self, rank: _Rank) -> float:
        """Lower bound on the time of this rank's next action (see module doc)."""
        if rank.state is RankState.RUNNABLE:
            return rank.clock.now
        if rank.state is RankState.BLOCKED_RECV:
            m = self._earliest_match(rank, rank.wait_source, rank.wait_tag)
            if m is not None:
                return max(rank.clock.now, m.arrival)
            return _INF
        if rank.state is RankState.BLOCKED_PROBE:
            # A probing rank resumes at its own clock (probe does not wait for
            # future messages, only for proof of absence).
            return rank.clock.now
        return _INF

    # -- stepping ---------------------------------------------------------

    def _step(self, rank: _Rank) -> None:
        """Advance one rank generator to its next yield (or completion)."""
        self._total_steps += 1
        rank.steps += 1
        if self._total_steps > self._max_steps:
            raise SimulationError(f"scheduler exceeded {self._max_steps} steps; runaway program?")
        value, rank.send_value = rank.send_value, None
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
        rank.state = RankState.BLOCKED_RECV if kind == "recv" else RankState.BLOCKED_PROBE

    def run(self) -> list[Any]:
        """Run all ranks to completion; returns their return values."""
        ranks = self._ranks
        while True:
            live = [r for r in ranks if r.state not in (RankState.DONE, RankState.FAILED)]
            if not live:
                break

            lbs = {r.index: self._lower_bound(r) for r in live}

            # Candidate actions: (event_time, kind_priority, rank_index, action)
            candidates: list[tuple[float, int, int, Callable[[], None]]] = []
            for r in live:
                if r.state is RankState.RUNNABLE:
                    candidates.append((r.clock.now, 0, r.index, self._make_run(r)))
                elif r.state is RankState.BLOCKED_RECV:
                    m = self._earliest_match(r, r.wait_source, r.wait_tag)
                    if m is None:
                        continue
                    other_lb = min(
                        (lb for i, lb in lbs.items() if i != r.index), default=_INF
                    )
                    if m.arrival <= other_lb:
                        when = max(r.clock.now, m.arrival)
                        candidates.append((when, 1, r.index, self._make_deliver(r, m)))
                elif r.state is RankState.BLOCKED_PROBE:
                    m = self._earliest_probe_hit(r)
                    if m is not None:
                        candidates.append((r.clock.now, 2, r.index, self._make_probe_answer(r, m)))
                    else:
                        other_lb = min(
                            (lb for i, lb in lbs.items() if i != r.index), default=_INF
                        )
                        if other_lb >= r.clock.now:
                            candidates.append(
                                (r.clock.now, 2, r.index, self._make_probe_answer(r, None))
                            )

            if not candidates:
                blocked = {r.index: (r.state.value, r.wait_source, r.wait_tag) for r in live}
                raise DeadlockError(f"simulation deadlock; blocked ranks: {blocked}")

            candidates.sort(key=lambda c: (c[0], c[1], c[2]))
            candidates[0][3]()

        failed = [r.index for r in ranks if r.state is RankState.FAILED]
        if failed:  # pragma: no cover - _step re-raises before we get here
            raise SimulationError(f"ranks failed: {failed}")
        return [r.result for r in ranks]

    def _earliest_probe_hit(self, rank: _Rank) -> Message | None:
        m = self._earliest_match(rank, rank.wait_source, rank.wait_tag)
        if m is not None and m.arrival <= rank.clock.now:
            return m
        return None

    def _make_run(self, rank: _Rank):
        def action():
            self._step(rank)

        return action

    def _make_deliver(self, rank: _Rank, msg: Message):
        def action():
            rank.mailbox.remove(msg)
            rank.clock.advance_to(msg.arrival)
            rank.send_value = msg
            rank.state = RankState.RUNNABLE
            self._step(rank)

        return action

    def _make_probe_answer(self, rank: _Rank, msg: Message | None):
        def action():
            rank.send_value = msg
            rank.state = RankState.RUNNABLE
            self._step(rank)

        return action

    # -- inspection -------------------------------------------------------

    def consume(self, rank_index: int, msg: Message) -> None:
        """Remove a specific message from a mailbox (used after probe)."""
        self._ranks[rank_index].mailbox.remove(msg)

    def mailbox_of(self, rank_index: int) -> list[Message]:
        return list(self._ranks[rank_index].mailbox)
