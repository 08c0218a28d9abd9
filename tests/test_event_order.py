"""The order of events is the simulator's contract, pinned without a golden file.

``tests/reference_scheduler.py`` is the event loop as it was before it became
a priority queue: rebuild every rank's bound and every eligible action per
event, sort, run the first.  Every case here runs once under that loop and
once under ``repro.simcluster.scheduler.Scheduler`` and requires the same
*resumption sequence* — which rank was resumed, at which clock reading, with
which message (by ``seq``) or other value — recorded by re-yielding the rank
programs from this file; plus the same results, final clocks and, where a
program deadlocks or raises, the same error text.  The cases are

* hypothesis-drawn rank programs that mix ``send`` / ``recv`` / ``probe`` /
  ``try_recv`` with ``ANY`` sources and tags, out-of-order arrivals (message
  sizes spanning five decades), self-sends, local clock advances, collectives
  and a ``SubComm``, on 2–17 ranks, deadlocking programs included;
* the real rank programs: ingest, solo BFS, a drain, two vertex programs and
  a drain that loses a device under ``replication=2``.

Both sides are computed in the same process, so a later *stated* change of
the virtual model moves both and breaks nothing here.
"""

import contextlib
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.simcluster.cluster as cluster_module
from repro import MSSG, MSSGConfig
from repro.bfs import bfs_distance
from repro.graphdb import GrDBFormat
from repro.graphgen import CSRGraph, pubmed_like
from repro.simcluster import ANY, DiskFault, FaultPlan, Message, SimCluster, SubComm
from repro.simcluster.comm import MAX_USER_TAG
from repro.simcluster.scheduler import Scheduler
from repro.util import CommError, DeadlockError

from .reference_scheduler import Scheduler as ReferenceScheduler

# -- recording, from outside src/ ----------------------------------------------


def _recorded(program, log):
    """``program`` re-yielded, every resumption appended to ``log``."""

    def wrapper(ctx):
        gen = program(ctx)
        if not hasattr(gen, "send"):
            return gen  # SimCluster.run raises its own ConfigError

        def drive():
            value = None
            while True:
                what = value.seq if isinstance(value, Message) else repr(value)
                log.append((ctx.rank, ctx.clock.now.hex(), what))
                try:
                    effect = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                value = yield effect

        return drive()

    return wrapper


@contextlib.contextmanager
def _simulator(scheduler_cls, log):
    """Every ``SimCluster.run`` inside uses ``scheduler_cls`` and is recorded."""
    plain_run = SimCluster.run

    def recorded_run(self, program, *args, **kwargs):
        if callable(program):
            program = _recorded(program, log)
        else:
            program = [_recorded(p, log) for p in program]
        return plain_run(self, program, *args, **kwargs)

    production = cluster_module.Scheduler
    cluster_module.Scheduler, SimCluster.run = scheduler_cls, recorded_run
    try:
        yield
    finally:
        cluster_module.Scheduler, SimCluster.run = production, plain_run


def _both(scenario):
    """(reference, production) of ``scenario() -> outcome``, each with its log."""
    sides = []
    for scheduler_cls in (ReferenceScheduler, Scheduler):
        log = []
        with _simulator(scheduler_cls, log):
            sides.append((scenario(), log))
    return sides


def _assert_same(reference, production):
    (want, want_log), (got, got_log) = reference, production
    for i, (a, b) in enumerate(zip(want_log, got_log)):
        assert a == b, f"resumption {i}: reference {a}, production {b}"
    assert len(got_log) == len(want_log)
    assert got == want


def test_the_reference_really_is_swapped_in():
    seen = []

    class Spy(ReferenceScheduler):
        def run(self):
            seen.append(type(self))
            return super().run()

    def program(ctx):
        return (yield from ctx.comm.allreduce(ctx.rank, operator.add))

    with _simulator(Spy, log := []):
        assert SimCluster(3).run(program) == [3, 3, 3]
    assert seen == [Spy] and len(log) > 3
    assert cluster_module.Scheduler is Scheduler and "recorded" not in SimCluster.run.__name__


# -- (a) drawn rank programs ---------------------------------------------------

TAGS = (0, 1, 2)
#: Header-only up to 10 ms on the wire: a later small message overtakes.
SIZES = (0, 8, 100, 5_000, 100_000, 1_000_000)
DELAYS = (0.0, 1e-6, 1e-4, 2e-3)
SUB_TAG = 7


def _coll_allreduce(ctx, comm, sub):
    return (yield from comm.allreduce(ctx.rank, operator.add))


def _coll_bcast(ctx, comm, sub):
    return (yield from comm.bcast(("from", ctx.rank), root=1 % comm.size))


def _coll_alltoall(ctx, comm, sub):
    return (yield from comm.alltoall([ctx.rank * 100 + d for d in range(comm.size)]))


def _coll_barrier(ctx, comm, sub):
    yield from comm.barrier()


def _sub_ring(ctx, comm, sub):
    if sub is None:
        return None
    sub.send((sub.rank + 1) % sub.size, sub.rank, tag=SUB_TAG, size=100 * sub.rank)
    msg = yield from sub.recv(source=(sub.rank - 1) % sub.size, tag=SUB_TAG)
    return (msg.source, msg.dest, msg.payload)


def _sub_gather(ctx, comm, sub):
    if sub is None:
        return None
    return (yield from sub.allgather(ctx.rank))


def _sub_poll(ctx, comm, sub):
    """Local rank 0 scatters; the others probe, try and then block, all with
    a wildcard somewhere, through the sub-communicator's relabelling."""
    if sub is None:
        return None
    if sub.rank == 0:
        for d in range(1, sub.size):
            sub.send(d, d, tag=SUB_TAG, size=5_000 * d)
        return None
    seen = yield from sub.probe(ANY, SUB_TAG)
    msg = yield from sub.try_recv(0, ANY)
    if msg is None:
        msg = yield from sub.recv(ANY, SUB_TAG)
    return (seen is None, msg.source, msg.dest, msg.payload)


COLLECTIVES = {
    f.__name__: f
    for f in (_coll_allreduce, _coll_bcast, _coll_alltoall, _coll_barrier,
              _sub_ring, _sub_gather, _sub_poll)
}


@st.composite
def rank_programs(draw):
    """(nranks, per-rank scripts, sub-communicator group, drain?)

    Scripts are built from drawn *transfers* so that most receives have a
    send somewhere — in an arbitrary order per rank, so some wait forever.
    """
    nranks = draw(st.integers(2, 17))
    rank = st.integers(0, nranks - 1)
    tag = st.sampled_from(TAGS)
    transfers = draw(
        st.lists(st.tuples(rank, rank, tag, st.sampled_from(SIZES)), max_size=3 * nranks)
    )
    scripts = [[] for _ in range(nranks)]
    for src, dst, t, size in transfers:  # src == dst: a self-send
        scripts[src].append(("send", dst, t, size))
        how = draw(st.sampled_from(("recv", "recv", "recv", "try_recv", "probe", "drop")))
        if how != "drop":
            source = draw(st.sampled_from((src, src, src, ANY)))
            scripts[dst].append((how, source, draw(st.sampled_from((t, t, t, ANY)))))
    extra = st.one_of(
        st.tuples(st.just("advance"), st.sampled_from(DELAYS)),
        st.tuples(st.sampled_from(("probe", "try_recv")), st.one_of(st.just(ANY), rank),
                  st.one_of(st.just(ANY), tag)),
    )
    collectives = draw(st.lists(st.sampled_from(sorted(COLLECTIVES)), max_size=3))
    for r in range(nranks):
        script = list(draw(st.permutations(scripts[r] + draw(st.lists(extra, max_size=4)))))
        # Every rank meets the collectives in the same order, anywhere in
        # between its own traffic.
        cuts = sorted(draw(st.lists(st.integers(0, len(script)), min_size=len(collectives),
                                    max_size=len(collectives))))
        for offset, (cut, name) in enumerate(zip(cuts, collectives)):
            script.insert(cut + offset, ("coll", name))
        scripts[r] = script
    group = draw(st.lists(rank, min_size=2, max_size=nranks, unique=True))
    return nranks, scripts, group, draw(st.booleans())


def _program_for(script, group, expected, drain):
    def program(ctx):
        comm = ctx.comm
        sub = SubComm(comm, group) if ctx.rank in group else None
        got, out = 0, []
        for op in script:
            kind = op[0]
            if kind == "send":
                comm.send(op[1], (ctx.rank, got), tag=op[2], size=op[3])
            elif kind == "advance":
                ctx.clock.advance(op[1])
            elif kind == "coll":
                out.append((yield from COLLECTIVES[op[1]](ctx, comm, sub)))
            else:
                msg = yield from getattr(comm, kind)(op[1], op[2])
                out.append(None if msg is None else (msg.source, msg.tag, msg.payload))
                if kind != "probe" and msg is not None and msg.tag < MAX_USER_TAG:
                    got += 1
        while drain and got < expected:
            msg = yield from comm.recv()
            out.append((msg.source, msg.tag, msg.payload))
            got += 1
        return out

    return program


def _run_drawn(nranks, scripts, group, drain):
    expected = [0] * nranks
    for script in scripts:
        for op in script:
            if op[0] == "send":
                expected[op[1]] += 1
    cluster = SimCluster(nranks)
    programs = [_program_for(scripts[r], group, expected[r], drain) for r in range(nranks)]
    try:
        outcome = ("ok", cluster.run(programs), cluster.makespan.hex())
    except (DeadlockError, CommError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, [node.clock.now.hex() for node in cluster.nodes]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rank_programs())
def test_drawn_rank_programs_resume_in_the_reference_order(drawn):
    _assert_same(*_both(lambda: _run_drawn(*drawn)))


def test_the_drawn_programs_cover_both_endings():
    """The strategy is worth something only if it finds programs that finish
    and programs that deadlock; count over a fixed sample."""
    endings = set()

    @settings(max_examples=60, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rank_programs())
    def sample(drawn):
        endings.add(_run_drawn(*drawn)[0][0])

    sample()
    assert {"ok", "DeadlockError"} <= endings


def test_a_deadlock_names_the_same_blocked_ranks():
    def program(ctx):
        if ctx.rank == 2:
            return "done"
        if ctx.rank == 0:
            ctx.comm.send(1, "x", tag=3)
            return (yield from ctx.comm.recv(source=ANY, tag=9))
        yield from ctx.comm.recv(source=0, tag=3)
        return (yield from ctx.comm.recv(source=2, tag=ANY))

    def scenario():
        with pytest.raises(DeadlockError) as err:
            SimCluster(3).run(program)
        return str(err.value)

    reference, production = _both(scenario)
    _assert_same(reference, production)
    assert production[0] == (
        "simulation deadlock; blocked ranks: "
        "{0: ('blocked_recv', -1, 9), 1: ('blocked_recv', 2, -1)}"
    )


# -- (b) the real rank programs ------------------------------------------------

EDGES = pubmed_like(500, seed=5)
GRAPH = CSRGraph.from_edges(EDGES, num_vertices=500)
PAIRS = [(0, 350), (1, 200), (2, 77), (3, 300), (5, 150), (7, 340)]
SMALL_GRDB = GrDBFormat(
    capacities=(2, 4, 16, 256),
    block_sizes=(1024, 1024, 1024, 4096),
    max_file_bytes=1 << 20,
)


def _deploy(backend, backends, **kw):
    return MSSG(MSSGConfig(backend=backend, num_backends=backends, num_frontends=1,
                           cache_blocks=4, grdb_format=SMALL_GRDB, **kw))


def _real_runs(backend, backends):
    seen = []

    def note(report):
        seen.append((repr(report.result), report.seconds.hex()))
        return report

    with _deploy(backend, backends) as mssg:
        seen.append(mssg.ingest(EDGES).seconds.hex())
        for source, dest in PAIRS[:4]:
            assert note(mssg.query_bfs(source, dest)).result == bfs_distance(GRAPH, source, dest)
        drain = mssg.query_many(PAIRS)
        seen.append((drain.seconds.hex(), [note(r).result for r in drain.queries]))
        note(mssg.query("pagerank", max_iters=3))
        note(mssg.query("components"))
    with _deploy(backend, backends, replication=2) as mssg:
        mssg.ingest(EDGES)
        # Back-end 0's devices die a moment into the drain, queries in flight.
        mssg.set_fault_plan(FaultPlan([DiskFault(node=1, at_time=1e-4)]))
        drain = mssg.query_many(PAIRS)
        failovers = sum(r.failovers for r in drain.queries)
        seen.append((drain.seconds.hex(), failovers, [note(r).result for r in drain.queries]))
        assert [r.result for r in drain.queries] == [bfs_distance(GRAPH, s, d) for s, d in PAIRS]
        # Array keeps no device to lose; it still runs the failover exchange.
        assert failovers > 0 or backend == "Array"
    return seen


@pytest.mark.parametrize(
    "backend,backends", [("Array", 4), ("Array", 13), ("grDB", 4), ("StreamDB", 3)]
)
def test_real_runs_resume_in_the_reference_order(backend, backends):
    reference, production = _both(lambda: _real_runs(backend, backends))
    _assert_same(reference, production)
    assert len(production[1]) > 300  # hundreds to thousands of resumptions compared
