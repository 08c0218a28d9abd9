"""Cluster telemetry: per-node utilization after a run.

The paper argues MSSG "scales well" from end-to-end times; this module
exposes the underlying per-node accounting of the simulation — disk busy
time, bytes moved, seeks, messages — so scaling claims can be inspected
rather than inferred.  Used by examples and by load-balance assertions in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..framework import MSSG

__all__ = [
    "FaultSummary",
    "NodeUtilization",
    "cluster_utilization",
    "fault_summary",
    "format_utilization",
    "load_imbalance",
]


@dataclass(frozen=True)
class NodeUtilization:
    node: int
    role: str  # "front-end" | "back-end"
    #: Total virtual seconds this node has been live across all runs
    #: (ingestion + every query) — the epoch the disk counters accrue in.
    clock_seconds: float
    disk_busy_seconds: float
    disk_reads: int
    disk_writes: int
    bytes_read: int
    bytes_written: int
    seeks: int
    messages_sent: int
    bytes_sent: int
    #: Injected faults that fired on this node's devices (fail or slow).
    faults_fired: int = 0
    #: Devices of this node currently in the hard-failed state.
    failed_devices: int = 0
    #: Bytes damaged in place by injected bit-rot (``corrupt``) faults.
    corrupted_bytes: int = 0
    #: Writes torn short by injected ``crash`` faults.
    torn_writes: int = 0
    #: Corrupt frames healed on this node by read-repair or scrub.
    repaired_frames: int = 0

    @property
    def disk_utilization(self) -> float:
        return self.disk_busy_seconds / self.clock_seconds if self.clock_seconds else 0.0


def cluster_utilization(mssg: MSSG) -> list[NodeUtilization]:
    """Snapshot per-node utilization counters of an MSSG deployment."""
    out = []
    F = mssg.config.num_frontends
    contexts = {c.rank: c for c in mssg.cluster.last_contexts}
    for node in mssg.cluster.nodes:
        busy = reads = writes = br = bw = seeks = faults = failed = 0
        corrupted = torn = 0
        for dev in node._disks.values():
            busy += dev.stats.busy_seconds
            reads += dev.stats.reads
            writes += dev.stats.writes
            br += dev.stats.bytes_read
            bw += dev.stats.bytes_written
            seeks += dev.stats.seeks
            faults += dev.stats.failures
            failed += dev.failed
            corrupted += dev.stats.corrupted_bytes
            torn += dev.stats.torn_writes
        ctx = contexts.get(node.index)
        live_msgs = ctx.comm.sent_messages if ctx else 0
        live_bytes = ctx.comm.sent_bytes if ctx else 0
        out.append(
            NodeUtilization(
                node=node.index,
                role="front-end" if node.index < F else "back-end",
                clock_seconds=node.total_run_seconds + node.clock.now,
                disk_busy_seconds=busy,
                disk_reads=reads,
                disk_writes=writes,
                bytes_read=br,
                bytes_written=bw,
                seeks=seeks,
                messages_sent=node.total_messages_sent + live_msgs,
                bytes_sent=node.total_bytes_sent + live_bytes,
                faults_fired=faults,
                failed_devices=failed,
                corrupted_bytes=corrupted,
                torn_writes=torn,
                repaired_frames=node.repaired_frames,
            )
        )
    return out


@dataclass(frozen=True)
class FaultSummary:
    """Replication-health snapshot of a deployment after faults."""

    #: Back-end indices whose devices are in the hard-failed state.
    dead_backends: tuple[int, ...]
    #: Injected faults that fired anywhere in the cluster (fail or slow).
    faults_fired: int
    #: Copies configured at deployment time.
    configured_replication: int
    #: Copies of the worst-covered partition under the current chain map
    #: (< configured after a death, == configured again after a rebalance).
    effective_replication: int
    #: The last ingestion ran degraded (a back-end died mid-stream).
    degraded_ingest: bool
    #: Entries the last ingestion could not store on any surviving holder.
    lost_entries: int
    #: Bytes damaged in place by injected ``corrupt`` faults, cluster-wide.
    corrupted_bytes: int = 0
    #: Writes torn short by injected ``crash`` faults, cluster-wide.
    torn_writes: int = 0
    #: Corrupt frames healed by read-repair/scrub, cluster-wide.
    repaired_frames: int = 0


def fault_summary(mssg: MSSG) -> FaultSummary:
    """Aggregate fault/replication health for one MSSG deployment."""
    devs = [dev for node in mssg.cluster.nodes for dev in node._disks.values()]
    faults = sum(dev.stats.failures for dev in devs)
    last = mssg.last_ingest
    return FaultSummary(
        dead_backends=tuple(mssg.dead_backends()),
        faults_fired=faults,
        configured_replication=mssg.config.replication,
        effective_replication=mssg.declusterer.effective_replication,
        degraded_ingest=bool(last is not None and last.degraded),
        lost_entries=last.lost_entries if last is not None else 0,
        corrupted_bytes=sum(dev.stats.corrupted_bytes for dev in devs),
        torn_writes=sum(dev.stats.torn_writes for dev in devs),
        repaired_frames=sum(node.repaired_frames for node in mssg.cluster.nodes),
    )


def load_imbalance(rows: list[NodeUtilization], role: str = "back-end") -> float:
    """Max/mean ratio of stored bytes across nodes of one role (1.0 = flat)."""
    values = [r.bytes_written for r in rows if r.role == role]
    if not values or sum(values) == 0:
        return 1.0
    mean = sum(values) / len(values)
    return max(values) / mean if mean else 1.0


def format_utilization(rows: list[NodeUtilization]) -> str:
    header = (
        f"{'node':>4} {'role':<10} {'clock[s]':>10} {'disk busy':>10} "
        f"{'reads':>8} {'writes':>8} {'seeks':>7} {'MB rd':>7} {'MB wr':>7} "
        f"{'msgs':>7} {'MB sent':>8} {'faults':>7} {'corrupt':>8} {'repair':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        fault_col = f"{r.faults_fired}" + ("!" if r.failed_devices else "")
        lines.append(
            f"{r.node:>4} {r.role:<10} {r.clock_seconds:>10.4f} "
            f"{r.disk_busy_seconds:>10.4f} {r.disk_reads:>8} {r.disk_writes:>8} "
            f"{r.seeks:>7} {r.bytes_read / 1e6:>7.2f} {r.bytes_written / 1e6:>7.2f} "
            f"{r.messages_sent:>7} {r.bytes_sent / 1e6:>8.2f} {fault_col:>7} "
            f"{r.corrupted_bytes:>8} {r.repaired_frames:>7}"
        )
    return "\n".join(lines)
