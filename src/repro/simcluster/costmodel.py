"""Cost models for the simulated cluster.

The paper's testbed (ch. 5) is a 64-node cluster: dual 2.4 GHz Opterons,
8 GB RAM, 2x250 GB SATA software RAID0 per node, switched gigabit Ethernet.
These dataclasses capture that hardware as a small set of constants; the
defaults below are calibrated to it (see ``repro.experiments.calibration``
for the derivation).

All costs are in seconds.  The models are intentionally simple — the paper's
own introduction reasons about its workloads with exactly these three knobs
(disk seek + bandwidth, network latency + bandwidth, per-edge CPU work).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DiskProfile", "NetworkProfile", "CpuProfile", "NodeSpec"]


@dataclass(frozen=True)
class DiskProfile:
    """Seek + streaming-transfer model of a disk.

    A request at the device's current head position (sequential with the
    previous request) pays only transfer time; any other request pays a full
    seek first.  RAID0 of two SATA disks circa 2006 streams at ~100 MB/s with
    ~8 ms average seek.
    """

    seek_seconds: float = 8e-3
    read_bandwidth: float = 100e6  # bytes/second
    write_bandwidth: float = 90e6  # bytes/second
    #: OS page cache in front of the device (0 disables).  Reads of cached
    #: pages skip the physical costs and pay a syscall+copy instead; writes
    #: are write-through and populate the cache.  The paper's experiments
    #: ran on 8 GB nodes whose working sets were RAM-resident, so the
    #: harness enables a large cache; the library default models raw disk.
    os_cache_bytes: int = 0
    os_page_bytes: int = 4096
    os_read_hit_seconds: float = 8e-6  # pread syscall + 4 KB copy, 2006-era

    def read_cost(self, nbytes: int, sequential: bool) -> float:
        cost = nbytes / self.read_bandwidth
        if not sequential:
            cost += self.seek_seconds
        return cost

    def write_cost(self, nbytes: int, sequential: bool) -> float:
        cost = nbytes / self.write_bandwidth
        if not sequential:
            cost += self.seek_seconds
        return cost


@dataclass(frozen=True)
class NetworkProfile:
    """Latency/bandwidth (LogGP-style) model of the cluster interconnect.

    * ``latency``: one-way wire latency.
    * ``bandwidth``: point-to-point stream bandwidth (gigabit Ethernet).
    * ``send_overhead``: CPU time the sender spends per message (syscall,
      DataCutter buffer handling).
    * ``byte_overhead``: CPU time per byte on the sender (copy/serialize).

    The *sender* is charged ``send_overhead + nbytes * byte_overhead``; the
    message then arrives at ``injection_end + latency + nbytes / bandwidth``
    where injection is serialized through the sender's NIC.  This makes
    communication/computation overlap (Algorithm 2) profitable, as in MPI.
    """

    latency: float = 60e-6
    bandwidth: float = 110e6  # bytes/second (~gigabit after protocol overhead)
    send_overhead: float = 12e-6
    byte_overhead: float = 0.4e-9

    def sender_cost(self, nbytes: int) -> float:
        return self.send_overhead + nbytes * self.byte_overhead

    def transfer_seconds(self, nbytes: int) -> float:
        return nbytes / self.bandwidth


@dataclass(frozen=True)
class CpuProfile:
    """Per-operation CPU costs for graph processing on a 2006-era node.

    The JVM prototype's per-edge costs dominate in-memory search times; these
    constants set the floor that the Array backend achieves (~30 M edges/s
    aggregate on 16 nodes in Fig. 5.7 — i.e. ~2 M edges/s/node → ~0.5 us
    per edge touched end-to-end).
    """

    edge_visit_seconds: float = 2.5e-7  # scan one adjacency entry in BFS
    hash_lookup_seconds: float = 2.2e-7  # one HashMap probe (Fig 5.1 gap)
    hashmap_edge_extra_seconds: float = 2.5e-7  # boxed-list overhead per entry
    compare_seconds: float = 4e-9  # one key comparison inside an index
    btree_page_seconds: float = 7.5e-6  # parse + binary-search one B-tree page
    grdb_subblock_seconds: float = 5.5e-6  # address + decode one grDB sub-block
    #: Marginal cost of one additional sub-block resolved from a block that a
    #: batched fringe expansion has already decoded: the address arithmetic is
    #: done once per planned batch and the block's slots are parsed in one
    #: pass, so each extra sub-block pays only a bounds-checked slot gather
    #: (the FlashGraph/GraphMP request-merging effect on the CPU side).
    grdb_batch_subblock_seconds: float = 1.2e-6
    #: Per-byte cost of decoding a delta+varint adjacency stream
    #: (``repro.util.varint``).  The decode is numpy-vectorized — terminator
    #: scan, one reduceat, one cumsum — so it streams at memory-ish rates
    #: rather than per-branch varint loops; ~500 MB/s on a 2006 Opteron.
    varint_decode_seconds: float = 2e-9
    row_parse_seconds: float = 2e-6  # deserialize one relational row
    sql_statement_seconds: float = 9e-5  # parse/plan/round-trip per statement
    ascii_parse_seconds: float = 3.5e-7  # parse one ASCII edge during ingest


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one simulated cluster node."""

    disk: DiskProfile = field(default_factory=DiskProfile)
    network: NetworkProfile = field(default_factory=NetworkProfile)
    cpu: CpuProfile = field(default_factory=CpuProfile)
    memory_bytes: int = 8 << 30
