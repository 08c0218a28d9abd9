"""Disk fault injection for the simulated cluster.

Every out-of-core result in the paper silently assumes P healthy disks.
This module makes disks *misbehave* on a schedule so the rest of the stack
can prove it survives: a :class:`FaultPlan` is a set of :class:`DiskFault`
triggers that a :class:`~repro.simcluster.disk.BlockDevice` checks on every
operation, either hard-failing the device (all subsequent I/O raises
:class:`~repro.util.errors.DeviceFailedError`) or degrading its latency by
a constant factor (the "slow disk" straggler mode).

Triggers are expressed in the simulation's own units — virtual seconds on
the owning node's clock, or a count of operations the device has served —
so fault schedules are exactly reproducible.  Plans can be installed at
any point of a deployment's life: before ingest (to fail the ingestion
itself), between streamed batches, or between ingest and queries.  The
only subtlety is the clock: node clocks reset at the start of every
:meth:`SimCluster.run`, so an ``at_time`` trigger is relative to whichever
run comes next, while ``after_ops`` counts a device's lifetime operations
and is run-agnostic.  Install a plan after ingestion (see
``MSSG.set_fault_plan``) to target queries only, or :meth:`FaultPlan.disarm`
it around phases that should stay healthy; only genuinely invalid triggers
(unknown kind, node outside the cluster, negative/senseless scopes) raise
:class:`~repro.util.errors.ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..util.errors import ConfigError

__all__ = ["DiskFault", "FaultPlan", "FAULT_KINDS"]

FAULT_KINDS = ("fail", "slow", "corrupt", "crash")
_KINDS = FAULT_KINDS


@dataclass(frozen=True)
class DiskFault:
    """One scheduled fault on one node's device(s).

    Parameters
    ----------
    node:
        Cluster rank index whose local devices this fault targets.
    device:
        Device-name prefix (``"grdb"`` matches every grDB level file);
        ``None`` targets every device of the node.
    kind:
        ``"fail"`` — the device hard-fails and stays failed; ``"slow"`` —
        every later operation costs ``slow_factor`` times as much;
        ``"corrupt"`` — a one-shot bit-rot event: stored bytes in the
        ``offset``/``length`` scope are flipped in place and the device
        keeps serving (checksummed reads detect the damage, unchecksummed
        reads return it as good data — the silent-corruption threat);
        ``"crash"`` — a power-loss/torn-write event: the first write after
        the trigger persists only a prefix of its payload (its first half),
        then the device hard-fails like ``"fail"`` (``BlockDevice.revive``
        models the post-crash restart with the torn bytes still on the
        platter).  A torn write therefore keeps a prefix, never a suffix or
        scattered sectors, and the first sector of a write of two or more
        sectors lands whole: the atomicity unit the commit roots assume
        (``docs/storage_format.md`` §2).
    at_time:
        Trigger once the node's virtual clock reaches this many seconds
        (relative to the current run — clocks reset per run).
    after_ops:
        Trigger once the device has completed this many operations
        (reads + writes, counted over the device's whole lifetime).
    slow_factor:
        Latency multiplier for ``kind="slow"``.
    offset / length:
        For ``kind="corrupt"``: byte range of the device to damage
        (``offset=None`` starts at 0, ``length=None`` runs to the end of
        the stored extent).  Offsets are *physical* device offsets — below
        any checksum framing.
    """

    node: int
    device: str | None = None
    kind: str = "fail"
    at_time: float | None = None
    after_ops: int | None = None
    slow_factor: float = 50.0
    offset: int | None = None
    length: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"fault kind must be one of {_KINDS}, got {self.kind!r}")
        if self.at_time is None and self.after_ops is None:
            raise ConfigError("a DiskFault needs an at_time or after_ops trigger")
        if self.at_time is not None and self.at_time < 0:
            raise ConfigError(f"negative fault time {self.at_time}")
        if self.after_ops is not None and self.after_ops < 0:
            raise ConfigError(f"negative fault operation count {self.after_ops}")
        if self.kind == "slow" and self.slow_factor < 1.0:
            raise ConfigError("slow_factor below 1.0 would speed the disk up")
        if (self.offset is not None or self.length is not None) and self.kind != "corrupt":
            raise ConfigError("offset/length scope only applies to kind='corrupt'")
        if self.offset is not None and self.offset < 0:
            raise ConfigError(f"negative corruption offset {self.offset}")
        if self.length is not None and self.length <= 0:
            raise ConfigError(f"corruption length must be positive, got {self.length}")

    def matches(self, node_index: int, device_name: str) -> bool:
        if node_index != self.node:
            return False
        return self.device is None or device_name.startswith(self.device)

    def triggered(self, now: float, ops_completed: int) -> bool:
        if self.at_time is not None and now >= self.at_time:
            return True
        return self.after_ops is not None and ops_completed >= self.after_ops


class FaultPlan:
    """A reproducible schedule of disk faults for one cluster.

    The plan is shared by reference with every device it matches, so
    :meth:`arm`/:meth:`disarm` take effect immediately across the cluster
    (e.g. keep ingestion healthy, then arm before the query under test).
    """

    def __init__(self, faults: Iterable[DiskFault] = ()):
        self.faults: list[DiskFault] = list(faults)
        self.armed = True

    def __iter__(self) -> Iterator[DiskFault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def add(self, fault: DiskFault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    def for_device(self, node_index: int, device_name: str) -> list[DiskFault]:
        return [f for f in self.faults if f.matches(node_index, device_name)]

    def validate(self, nranks: int) -> None:
        """Check every fault against a cluster of ``nranks`` nodes.

        Called at install time (``SimCluster.install_fault_plan`` /
        ``MSSG.set_fault_plan``): a fault naming a node outside the cluster
        — or carrying an unknown kind, possible when the plan was built
        from untyped config data — would otherwise just never fire, which
        reads exactly like the system surviving it.
        """
        for fault in self.faults:
            if fault.kind not in _KINDS:
                raise ConfigError(
                    f"fault kind must be one of {_KINDS}, got {fault.kind!r} in {fault}"
                )
            if not 0 <= fault.node < nranks:
                raise ConfigError(
                    f"fault targets node {fault.node} but the cluster has "
                    f"ranks 0..{nranks - 1}: {fault}"
                )

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    @classmethod
    def kill_node(
        cls,
        node: int,
        at_time: float | None = None,
        after_ops: int | None = None,
        device: str | None = None,
    ) -> "FaultPlan":
        """Convenience: one plan hard-failing every device of ``node``."""
        return cls([DiskFault(node=node, device=device, at_time=at_time, after_ops=after_ops)])
