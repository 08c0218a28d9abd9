"""Concurrent multi-query scheduler: interleave BFS queries level-by-level.

One drain runs N relationship queries through a single back-end program
per rank.  Each query is the unmodified Algorithm-1 generator compiled
with ``BFSConfig.level_marks=True``, so it suspends at a *level mark*
after every level-end allreduce — a point where no collective is in
flight on any rank.  The multiplexer advances queries mark-to-mark in a
rank-uniform order, which keeps the interleaved collective sequence (and
therefore the shared sub-communicator's tag stream) identical on every
rank: query A's level can overlap query B's in virtual time without any
message ever matching the wrong collective.

Scheduling policy, all derived from rank-uniform state (the shared spec
list, the active set, allreduced globals) so every rank takes identical
decisions with no extra coordination messages:

* **admission** — FIFO by submission order up to ``max_inflight``;
* **fairness** — each round visits active queries grouped by tenant, with
  the tenant order rotated one step per round, so a tenant with many
  queued queries cannot starve a tenant with one;
* **deadlines** — when any active query carries one, each round ends with
  an allreduce of per-query elapsed-since-admission (max over ranks); an
  expired query is handed ``"abort"`` at its next level mark and returns
  a partial result flagged ``deadline_exceeded`` instead of running on;
* **shared sweeps** — before running a round the multiplexer arms the
  rank's :class:`~repro.services.sharedscan.ScanBoard` for any backend
  sweep at least two of the round's queries will issue (StreamDB log
  replays; bottom-up storage scans, predicted exactly via
  ``DirectionController.peek``), so the device pays one pass per round
  instead of one per query.

Per-query cost attribution: ``db.stats.edges_scanned`` is snapshotted
around every slice (the generator's own start-to-end delta would absorb
the other queries' work), and a query's latency is its own admission-to-
completion span on each rank's clock — which *includes* time the rank
spent serving other queries' slices, exactly what an end-to-end client
would observe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..bfs.direction import BOTTOM_UP
from ..bfs.rankprog import LevelMark, RankResult
from .sharedscan import BOTTOM_UP_SCAN, LOG_REPLAY, ScanBoard

__all__ = ["QuerySpec", "QueryOutcome", "RankDrainOutcome", "multiplex_program"]


@dataclass(frozen=True)
class QuerySpec:
    """One submitted relationship query, as queued by ``QueryService.submit``."""

    qid: int
    source: int
    dest: int
    tenant: str = "default"
    #: Virtual-seconds budget measured from admission (``None`` = no limit).
    deadline: float | None = None
    visited: str = "memory"
    max_levels: int = 64
    direction_opt: bool | None = None
    direction_schedule: tuple | None = None
    #: Which registered analysis runs this query: ``"bfs"`` (the default
    #: relationship query) or a drain-capable vertex-program analysis
    #: ("pagerank", "components").
    analysis: str = "bfs"
    #: Keyword parameters for non-BFS analyses (``None`` = defaults).
    params: dict | None = None


@dataclass
class QueryOutcome:
    """One rank's view of one drained query."""

    result: RankResult
    #: Adjacency entries this query's slices scanned on this rank.
    edges_scanned: int = 0
    #: Drain start -> admission on this rank's clock.
    queue_seconds: float = 0.0
    #: Admission -> completion on this rank's clock (includes time spent
    #: interleaved behind other queries — the client-observed latency).
    latency_seconds: float = 0.0
    #: Streaming-mode snapshot id the query was admitted at (``None`` when
    #: the deployment is not streaming).  Every slice of the query reads
    #: the overlay pinned to this id, whatever lands mid-drain.
    snapshot_seq: int | None = None


@dataclass
class RankDrainOutcome:
    """Everything one back-end rank reports for a whole drain."""

    queries: list = field(default_factory=list)
    rounds: int = 0
    #: Device passes performed for armed shared sweeps on this rank.
    shared_passes: int = 0
    #: Armed sweeps served from a published pass (device passes avoided).
    shared_served: int = 0


def _advance(gen, value=None):
    """Drive one query generator to its next level mark (or completion).

    Comm yields are forwarded verbatim to whatever is driving the
    multiplexer (ultimately the simcluster Scheduler); the ``LevelMark``
    sentinels are intercepted here and never escape.  Returns
    ``("mark", LevelMark)`` or ``("done", rank result)``.
    """
    try:
        item = gen.send(value)
        while not isinstance(item, LevelMark):
            item = gen.send((yield item))
    except StopIteration as stop:
        return ("done", stop.value)
    return ("mark", item)


def _round_order(active: dict, specs, round_no: int) -> list[int]:
    """Rank-uniform visit order: tenants rotated by round, FIFO within."""
    by_tenant: dict[str, list[int]] = {}
    for qid in sorted(active):
        by_tenant.setdefault(specs[qid].tenant, []).append(qid)
    tenants = sorted(by_tenant)
    k = round_no % len(tenants)
    rotated = tenants[k:] + tenants[:k]
    return [qid for t in rotated for qid in by_tenant[t]]


def _max_merge(a: dict, b: dict) -> dict:
    return {k: max(a[k], b[k]) for k in a}


def multiplex_program(
    ctx,
    db,
    specs,
    make_gen,
    max_inflight: int,
    shared_scans: bool,
    feed=None,
):
    """Back-end rank program draining ``specs`` concurrently; see module doc.

    ``make_gen(ctx, qid)`` builds the query's level-marked generator —
    Algorithm-1 BFS with ``BFSConfig.level_marks``, or anything else
    speaking the same mark protocol (vertex programs included) can be
    multiplexed.  ``feed`` (streaming deployments) is the drain's in-drain
    ingest :class:`~repro.services.streaming.StreamFeed`, shared by every
    rank: ``step(rank, round)`` applies the batches due this round to this
    back-end (the sub-communicator rank is the back-end index), and
    ``snapshot(round)`` is the rank-uniform snapshot id new admissions pin —
    each query slice then runs with ``db._stream_snap`` set to its admission
    snapshot, so a query never observes a batch published after it was
    admitted.  Returns a :class:`RankDrainOutcome`.
    """
    board = ScanBoard() if shared_scans else None
    if board is not None:
        db.scan_board = board
    active: dict[int, dict] = {}
    try:
        n = len(specs)
        outcomes: list[QueryOutcome | None] = [None] * n
        waiting = deque(range(n))
        abort: set[int] = set()
        t0 = ctx.clock.now
        rounds = 0
        any_deadline = any(s.deadline is not None for s in specs)

        def finish(qid, st, result):
            outcomes[qid] = QueryOutcome(
                result=result,
                edges_scanned=st["edges"],
                queue_seconds=st["admitted"] - t0,
                latency_seconds=ctx.clock.now - st["admitted"],
                snapshot_seq=st["snap"],
            )
            del active[qid]
            abort.discard(qid)

        def run_slice(qid, cmd=None):
            """Advance query ``qid`` to its next unfinished mark (or its end);
            what the slice scans is the query's.  Every slice reads at the
            query's admission snapshot, whatever the feed published since."""
            st = active[qid]
            before = db.stats.edges_scanned
            db._stream_snap = st["snap"]
            out = yield from _advance(st["gen"], cmd)
            # A done-mark means the search terminated at this level:
            # the continuation runs only the (comm-free) epilogue.
            while out[0] == "mark" and out[1].done:
                out = yield from _advance(st["gen"])
            db._stream_snap = None
            st["edges"] += db.stats.edges_scanned - before
            if out[0] == "done":
                finish(qid, st, out[1])
            else:
                st["next_dir"] = out[1].next_direction

        # The round loop outlives the last query if the stream feed still
        # has batches planned for later rounds: the plan (and so the exit
        # round) is static, keeping the extra empty rounds rank-uniform.
        while (
            waiting
            or active
            or (feed is not None and rounds < feed.last_round)
        ):
            rounds += 1
            # Streaming: apply the batches due this round to this rank's
            # delta log + overlay before anything is admitted or advanced.
            # The round counter is rank-uniform, so every rank applies (and
            # publishes) the same batches at the same point of the drain.
            if feed is not None:
                feed.step(ctx.comm.rank, rounds)
            # FIFO admission up to the in-flight cap.  Advancing a fresh
            # generator to its pre-admission mark costs no comm (and a
            # source==dest query completes right here), so admission stays
            # rank-uniform by construction.
            while waiting and len(active) < max_inflight:
                qid = waiting.popleft()
                active[qid] = {
                    "gen": make_gen(ctx, qid),
                    "admitted": ctx.clock.now,
                    "edges": 0,
                    "next_dir": None,
                    # Snapshot resolution happens HERE, at admission: the
                    # id is pinned for the query's whole life.
                    "snap": feed.snapshot(rounds) if feed is not None else None,
                }
                yield from run_slice(qid)

            order = _round_order(active, specs, rounds) if active else []
            if board is not None:
                board.begin_round()
                if len(order) >= 2:
                    board.arm(LOG_REPLAY)
                pulls = sum(1 for q in order if active[q]["next_dir"] == BOTTOM_UP)
                if pulls >= 2:
                    board.arm(BOTTOM_UP_SCAN)

            for qid in order:
                # The generator is suspended at a level mark; "abort" (a
                # rank-uniform decision from last round's deadline
                # allreduce) makes it wind down with no further comm.
                yield from run_slice(qid, "abort" if qid in abort else None)

            if any_deadline and active:
                elapsed = {
                    qid: ctx.clock.now - active[qid]["admitted"] for qid in sorted(active)
                }
                merged = yield from ctx.comm.allreduce(elapsed, _max_merge)
                for qid, spent in merged.items():
                    limit = specs[qid].deadline
                    if limit is not None and spent > limit:
                        abort.add(qid)

        return RankDrainOutcome(
            queries=outcomes,
            rounds=rounds,
            shared_passes=board.passes if board is not None else 0,
            shared_served=board.served if board is not None else 0,
        )
    finally:
        # A drain cut short closes its unfinished queries, so each releases
        # what it holds (an external visited map's scratch device).
        for st in active.values():
            st["gen"].close()
        if board is not None and getattr(db, "scan_board", None) is board:
            del db.scan_board
