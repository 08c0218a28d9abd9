"""SimCluster: the façade that wires nodes, comms and the scheduler.

Typical use::

    cluster = SimCluster(nranks=4)

    def program(ctx):
        ctx.compute(1e-3)                      # charge CPU time
        total = yield from ctx.comm.allreduce(ctx.rank, lambda a, b: a + b)
        return total

    results = cluster.run(program)             # [6, 6, 6, 6]
    cluster.makespan                           # virtual seconds of the run

Each rank gets a :class:`SimNode` (clock + disks + cost profiles) and a
:class:`Comm`.  ``run`` accepts either one SPMD program for all ranks or a
list with one program per rank (MPMD), mirroring how the paper places
front-end ingestion filters and back-end GraphDB filters on different hosts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..util.errors import ConfigError
from .comm import Comm
from .costmodel import NodeSpec
from .disk import BlockDevice, FileBacking, MemoryBacking, OSPageCache
from .scheduler import Scheduler
from .virtualtime import VirtualClock

__all__ = ["SimNode", "RankContext", "SimCluster"]


class SimNode:
    """One simulated cluster node: a clock, cost profiles, and local disks."""

    def __init__(
        self,
        index: int,
        spec: NodeSpec,
        storage_dir: str | None = None,
        fault_plan=None,
    ):
        self.index = index
        self.spec = spec
        self.clock = VirtualClock()
        self.storage_dir = storage_dir
        self.fault_plan = fault_plan
        self._disks: dict[str, BlockDevice] = {}
        # Lifetime accounting across runs (clocks reset per run; these do not).
        self.total_run_seconds = 0.0
        self.total_messages_sent = 0
        self.total_bytes_sent = 0
        #: Corrupt frames healed on this node's devices by read-repair/scrub.
        self.repaired_frames = 0
        # One kernel page cache per node, shared by all its devices.
        self.os_cache: OSPageCache | None = None
        if spec.disk.os_cache_bytes > 0:
            self.os_cache = OSPageCache(spec.disk.os_cache_bytes // spec.disk.os_page_bytes)

    def disk(self, name: str = "disk0") -> BlockDevice:
        """Get or create a named local block device (clock-sharing)."""
        dev = self._disks.get(name)
        if dev is None:
            if self.storage_dir is not None:
                backing = FileBacking(os.path.join(self.storage_dir, f"node{self.index}", name))
            else:
                backing = MemoryBacking()
            dev = BlockDevice(
                backing, self.spec.disk, self.clock, name=name, os_cache=self.os_cache
            )
            if self.fault_plan is not None:
                dev.install_faults(
                    self.fault_plan, self.fault_plan.for_device(self.index, name)
                )
            self._disks[name] = dev
        return dev

    def drop_disk(self, name: str) -> None:
        """Close and forget a named device, deleting its file backing.

        Releases per-query scratch devices; charges no virtual time.
        """
        dev = self._disks.pop(name, None)
        if dev is None:
            return
        dev.close()
        if isinstance(dev.backing, FileBacking):
            os.remove(dev.backing.path)

    def install_fault_plan(self, plan) -> None:
        """Adopt ``plan`` (or clear, with ``None``) for existing and future
        devices of this node."""
        self.fault_plan = plan
        for name, dev in self._disks.items():
            if plan is None:
                dev.clear_faults()
            else:
                dev.install_faults(plan, plan.for_device(self.index, name))

    def compute(self, seconds: float) -> None:
        self.clock.advance(seconds)

    def close(self) -> None:
        for dev in self._disks.values():
            dev.close()
        self._disks.clear()


@dataclass
class RankContext:
    """Everything a rank program needs: identity, node hardware, comm."""

    rank: int
    size: int
    node: SimNode
    comm: Comm

    def compute(self, seconds: float) -> None:
        self.node.compute(seconds)

    @property
    def clock(self) -> VirtualClock:
        return self.node.clock

    @property
    def cpu(self):
        return self.node.spec.cpu


class SimCluster:
    """A reusable description of a simulated cluster.

    ``run`` builds fresh clocks/comms per invocation so a cluster object can
    execute many independent experiments; nodes (and their disks, i.e. the
    stored graph) persist across runs, which is how an ingestion run is
    followed by many query runs against the same on-disk data.
    """

    def __init__(
        self,
        nranks: int,
        spec: NodeSpec | None = None,
        specs: Sequence[NodeSpec] | None = None,
        storage_dir: str | None = None,
        fault_plan=None,
    ):
        if nranks <= 0:
            raise ConfigError(f"cluster needs at least 1 rank, got {nranks}")
        if specs is not None and len(specs) != nranks:
            raise ConfigError(f"got {len(specs)} specs for {nranks} ranks")
        base = spec if spec is not None else NodeSpec()
        self.specs = list(specs) if specs is not None else [base] * nranks
        self.nranks = nranks
        if fault_plan is not None:
            fault_plan.validate(nranks)
        self.fault_plan = fault_plan
        self.nodes = [
            SimNode(i, self.specs[i], storage_dir, fault_plan=fault_plan)
            for i in range(nranks)
        ]
        self.makespan: float = 0.0
        self.last_contexts: list[RankContext] = []

    def install_fault_plan(self, plan) -> None:
        """Adopt a :class:`~repro.simcluster.faults.FaultPlan` cluster-wide.

        Covers devices that already exist (e.g. created during ingestion)
        as well as ones created later, so a plan can be installed *between*
        a healthy ingest and the query it is meant to disturb.  The plan is
        validated against this cluster first (node indices in range, known
        fault kinds) — a typo'd plan that could never fire raises
        :class:`~repro.util.errors.ConfigError` instead of silently
        reading like a survived fault.
        """
        if plan is not None:
            plan.validate(self.nranks)
        self.fault_plan = plan
        for node in self.nodes:
            node.install_fault_plan(plan)

    def run(
        self,
        program: Callable | Sequence[Callable],
        reset_clocks: bool = True,
    ) -> list[Any]:
        """Execute rank programs to completion; returns per-rank results.

        ``program`` is either a single callable (run on every rank) or one
        callable per rank.  Each callable receives a :class:`RankContext`
        and must be a generator function (it may simply ``return`` without
        yielding if it never communicates).
        """
        if callable(program):
            programs = [program] * self.nranks
        else:
            programs = list(program)
            if len(programs) != self.nranks:
                raise ConfigError(f"got {len(programs)} programs for {self.nranks} ranks")
        if reset_clocks:
            # Fold the previous run into each node's lifetime totals.
            for ctx in self.last_contexts:
                ctx.node.total_messages_sent += ctx.comm.sent_messages
                ctx.node.total_bytes_sent += ctx.comm.sent_bytes
            for node in self.nodes:
                node.total_run_seconds += node.clock.now
                node.clock.reset()

        scheduler = Scheduler([node.clock for node in self.nodes])
        contexts = []
        for i, node in enumerate(self.nodes):
            comm = Comm(scheduler, i, self.nranks, node.clock, node.spec.network)
            contexts.append(RankContext(rank=i, size=self.nranks, node=node, comm=comm))
        self.last_contexts = contexts

        gens = []
        for ctx, prog in zip(contexts, programs):
            gen = prog(ctx)
            if not hasattr(gen, "send"):
                raise ConfigError(
                    f"rank program {prog!r} must be a generator function "
                    "(use 'yield from ctx.comm...' or add a bare 'yield' gate)"
                )
            gens.append(gen)
        for gen in gens:
            scheduler.add_rank(gen)
        results = scheduler.run()
        self.makespan = max(node.clock.now for node in self.nodes)
        return results

    def close(self) -> None:
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "SimCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
