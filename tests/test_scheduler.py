"""Tests for the discrete-event scheduler and MPI-like communicator."""

import gc

import pytest

from repro.simcluster import ANY, NetworkProfile, NodeSpec, SimCluster
from repro.util import CommError, ConfigError, DeadlockError


def make_cluster(n, **net_kwargs):
    spec = NodeSpec(network=NetworkProfile(**net_kwargs)) if net_kwargs else NodeSpec()
    return SimCluster(nranks=n, spec=spec)


class TestPointToPoint:
    def test_send_recv_pair(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, {"x": 42}, tag=5)
                return "sent"
            msg = yield from ctx.comm.recv(source=0, tag=5)
            return msg.payload["x"]

        assert cluster.run(program) == ["sent", 42]

    def test_recv_advances_receiver_clock_past_arrival(self):
        cluster = make_cluster(2, latency=1e-3, bandwidth=1e6)

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(0.5)
                ctx.comm.send(1, b"x" * 1000)
                return ctx.clock.now
            msg = yield from ctx.comm.recv()
            return ctx.clock.now

        t_send, t_recv = cluster.run(program)
        # arrival >= send time + latency + transfer of ~1KB at 1MB/s (~1ms)
        assert t_recv >= 0.5 + 1e-3 + 1e-3

    def test_messages_fifo_per_pair(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                for i in range(10):
                    ctx.comm.send(1, i, tag=1)
                return None
            got = []
            for _ in range(10):
                msg = yield from ctx.comm.recv(source=0, tag=1)
                got.append(msg.payload)
            return got

        assert cluster.run(program)[1] == list(range(10))

    def test_tag_selectivity(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, "a", tag=1)
                ctx.comm.send(1, "b", tag=2)
                return None
            m2 = yield from ctx.comm.recv(tag=2)
            m1 = yield from ctx.comm.recv(tag=1)
            return (m2.payload, m1.payload)

        assert cluster.run(program)[1] == ("b", "a")

    def test_any_source(self):
        cluster = make_cluster(3)

        def program(ctx):
            if ctx.rank != 0:
                ctx.compute(ctx.rank * 1e-3)  # rank 1 sends earlier than rank 2
                ctx.comm.send(0, ctx.rank, tag=9)
                return None
            first = yield from ctx.comm.recv(source=ANY, tag=9)
            second = yield from ctx.comm.recv(source=ANY, tag=9)
            return (first.payload, second.payload)

        assert cluster.run(program)[0] == (1, 2)

    def test_send_to_self(self):
        cluster = make_cluster(1)

        def program(ctx):
            ctx.comm.send(0, "loop", tag=3)
            msg = yield from ctx.comm.recv(source=0, tag=3)
            return msg.payload

        assert cluster.run(program) == ["loop"]

    def test_numpy_payload_is_isolated(self):
        import numpy as np

        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                arr = np.array([1, 2, 3])
                ctx.comm.send(1, arr)
                arr[0] = 99  # mutation after send must not leak
                return None
            msg = yield from ctx.comm.recv()
            return msg.payload.tolist()

        assert cluster.run(program)[1] == [1, 2, 3]

    def test_invalid_dest_and_tag(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                with pytest.raises(CommError):
                    ctx.comm.send(5, "x")
                with pytest.raises(CommError):
                    ctx.comm.send(1, "x", tag=-2)
            yield from ctx.comm.barrier()

        cluster.run(program)


class TestProbe:
    def test_probe_miss_then_hit(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(1.0)
                ctx.comm.send(1, "late", tag=7)
                return None
            early = yield from ctx.comm.probe(tag=7)  # nothing arrived at t~0
            ctx.compute(2.0)  # move past the arrival
            late = yield from ctx.comm.probe(tag=7)
            msg = yield from ctx.comm.recv(tag=7)
            return (early is None, late is not None, msg.payload)

        assert cluster.run(program)[1] == (True, True, "late")

    def test_try_recv_consumes(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, "only", tag=4)
                return None
            ctx.compute(1.0)
            first = yield from ctx.comm.try_recv(tag=4)
            second = yield from ctx.comm.try_recv(tag=4)
            return (first.payload if first else None, second)

        assert cluster.run(program)[1] == ("only", None)


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_bcast(self, n):
        cluster = make_cluster(n)

        def program(ctx):
            value = "payload" if ctx.rank == 0 else None
            value = yield from ctx.comm.bcast(value, root=0)
            return value

        assert cluster.run(program) == ["payload"] * n

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        cluster = make_cluster(3)

        def program(ctx):
            value = ctx.rank * 10 if ctx.rank == root else None
            value = yield from ctx.comm.bcast(value, root=root)
            return value

        assert cluster.run(program) == [root * 10] * 3

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gather(self, n):
        cluster = make_cluster(n)

        def program(ctx):
            out = yield from ctx.comm.gather(ctx.rank * ctx.rank, root=0)
            return out

        results = cluster.run(program)
        assert results[0] == [i * i for i in range(n)]
        assert all(r is None for r in results[1:])

    def test_allgather(self):
        cluster = make_cluster(4)

        def program(ctx):
            out = yield from ctx.comm.allgather(chr(ord("a") + ctx.rank))
            return "".join(out)

        assert cluster.run(program) == ["abcd"] * 4

    def test_allreduce_sum(self):
        cluster = make_cluster(6)

        def program(ctx):
            total = yield from ctx.comm.allreduce(ctx.rank, lambda a, b: a + b)
            return total

        assert cluster.run(program) == [15] * 6

    def test_barrier_synchronizes_clocks(self):
        cluster = make_cluster(3)

        def program(ctx):
            ctx.compute(float(ctx.rank))  # rank 2 is 2 seconds "behind"
            yield from ctx.comm.barrier()
            return ctx.clock.now

        times = cluster.run(program)
        assert all(t >= 2.0 for t in times)

    def test_alltoall(self):
        cluster = make_cluster(3)

        def program(ctx):
            values = [f"{ctx.rank}->{d}" for d in range(3)]
            out = yield from ctx.comm.alltoall(values)
            return out

        results = cluster.run(program)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_arity(self):
        cluster = make_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                with pytest.raises(CommError):
                    yield from ctx.comm.alltoall([1, 2, 3])
            yield from ctx.comm.barrier()

        cluster.run(program)


class TestSchedulerSafety:
    def test_deadlock_detection(self):
        cluster = make_cluster(2)

        def program(ctx):
            msg = yield from ctx.comm.recv()  # nobody ever sends
            return msg

        with pytest.raises(DeadlockError):
            cluster.run(program)

    def test_failed_run_finalises_abandoned_ranks_before_raising(self):
        """Rank 1's ``finally`` runs inside the failed ``run``, not whenever the
        exception that keeps its generator alive is dropped (it used to land
        on the clock of a later, unrelated run)."""
        cluster = make_cluster(2)

        def failing(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.probe()  # lets rank 1 reach its recv
                raise RuntimeError("rank 0 gave up")
            try:
                yield from ctx.comm.recv()
            finally:
                ctx.clock.advance(5.0)

        def second(ctx):
            ctx.compute(1.0)
            return ctx.clock.now
            yield  # pragma: no cover - makes this a generator function

        with pytest.raises(RuntimeError) as kept:
            cluster.run(failing)
        assert cluster.nodes[1].clock.now == 5.0
        assert cluster.run(second) == [1.0, 1.0]
        assert cluster.makespan == 1.0
        del kept
        gc.collect()
        assert [node.clock.now for node in cluster.nodes] == [1.0, 1.0]
        cluster.run(second)
        assert cluster.nodes[1].total_run_seconds == 5.0 + 1.0

    def test_determinism(self):
        """The same program yields bit-identical timings across runs."""

        def program(ctx):
            ctx.compute(1e-4 * (ctx.rank + 1))
            vals = yield from ctx.comm.allgather(ctx.rank)
            ctx.compute(1000 * ctx.cpu.edge_visit_seconds)
            total = yield from ctx.comm.allreduce(sum(vals), lambda a, b: a + b)
            return (total, ctx.clock.now)

        r1 = make_cluster(5).run(program)
        r2 = make_cluster(5).run(program)
        assert r1 == r2

    def test_mpmd_programs(self):
        cluster = make_cluster(2)

        def producer(ctx):
            ctx.comm.send(1, "work")
            return "done"
            yield  # pragma: no cover - makes this a generator function

        def consumer(ctx):
            msg = yield from ctx.comm.recv()
            return msg.payload

        assert cluster.run([producer, consumer]) == ["done", "work"]

    def test_wrong_program_count(self):
        cluster = make_cluster(3)

        def program(ctx):
            yield from ctx.comm.barrier()

        with pytest.raises(ConfigError):
            cluster.run([program, program])

    def test_non_generator_program_rejected(self):
        cluster = make_cluster(1)

        def not_a_generator(ctx):
            return 42

        with pytest.raises(ConfigError):
            cluster.run(not_a_generator)

    def test_makespan_recorded(self):
        cluster = make_cluster(2)

        def program(ctx):
            ctx.compute(3.0 if ctx.rank == 1 else 1.0)
            yield from ctx.comm.barrier()

        cluster.run(program)
        assert cluster.makespan >= 3.0

    def test_cluster_requires_positive_ranks(self):
        with pytest.raises(ConfigError):
            SimCluster(nranks=0)

    def test_clocks_reset_between_runs(self):
        cluster = make_cluster(2)

        def program(ctx):
            ctx.compute(1.0)
            yield from ctx.comm.barrier()
            return ctx.clock.now

        first = cluster.run(program)
        second = cluster.run(program)
        assert first == second
