"""Metric tables and how each value is computed from the operation records.

*Wall* metrics use, per operation, the median over the repetitions of its
wall seconds at the reference host's speed (``hostspeed``: once the host's
phases are divided out what is left is two-sided, and the median measured
steadier than the minimum); *virtual* and count metrics come from
repetition 1 and are checked bit-identical across the repetitions by the
runner.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING

from trace import LAYERS

if TYPE_CHECKING:  # compare.py reads the tables below without src/ on the path
    from phases import Repetition

PHASES = ("ingest", "solo", "drain", "analytics")

#: name -> (unit, better, bound, clock).  ``bound`` is what BENCHMARK.json
#: carries.  The driver compares medians over ten *different* seeds, so a
#: bound has to cover what re-labelling the graph moves (virtual metrics:
#: 0.03-5 % interquartile, most on ``streamdb-stream``) and, for wall
#: metrics, what is left of the host's noise after ``hostspeed`` (5-13 %).
#: Virtual and memory bounds are at least three times the widest spread
#: measured over two sets of ten seeds; wall bounds are the contract's
#: maximum, 0.25, about twice theirs (README, "Noise").
#: ``compare.py`` compares two runs of the *same* seed, where virtual
#: metrics repeat exactly, and holds them to ``SAME_SEED_VIRTUAL_BOUND``.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "wall"),
    "ingest_wall_eps": ("edges/s", "higher", 0.25, "wall"),
    "ingest_virtual_eps": ("edges/s", "higher", 0.12, "virtual"),
    "solo_wall_p50_ms": ("ms", "lower", 0.25, "wall"),
    "solo_wall_qps": ("1/s", "higher", 0.25, "wall"),
    "solo_virtual_mean_ms": ("ms", "lower", 0.20, "virtual"),
    "drain_wall_qps": ("1/s", "higher", 0.25, "wall"),
    "drain_virtual_qps": ("1/s", "higher", 0.20, "virtual"),
    "analytics_wall_s": ("s", "lower", 0.25, "wall"),
    "analytics_virtual_s": ("s", "lower", 0.10, "virtual"),
    "io_bytes_per_query": ("B", "lower", 0.15, "virtual"),
    "peak_rss_mb": ("MiB", "lower", 0.10, "memory"),
}
SAME_SEED_VIRTUAL_BOUND = 0.01

_COUNTERS = (
    ("util.varint.calls", "count", "lower"),
    ("util.varint.values", "count", "lower"),
    ("util.varint.values_per_call", "count", "higher"),
    ("util.bitset.calls", "count", "lower"),
    ("storage.blockcache.gets", "count", "lower"),
    ("storage.blockcache.hit_rate", "ratio", "higher"),
    ("storage.blockcache.evictions", "count", "lower"),
    ("storage.integrity.calls", "count", "lower"),
    ("storage.integrity.bytes", "B", "lower"),
    ("storage.deltalog.appends", "count", "lower"),
    ("storage.deltalog.bytes", "B", "lower"),
    ("simcluster.disk.reads", "count", "lower"),
    ("simcluster.disk.writes", "count", "lower"),
    ("simcluster.disk.bytes_read", "B", "lower"),
    ("simcluster.disk.bytes_written", "B", "lower"),
    ("simcluster.disk.seeks", "count", "lower"),
    ("simcluster.disk.virtual_busy_s", "s", "lower"),
    ("simcluster.disk.read_bytes_per_query", "B", "lower"),
    ("simcluster.disk.stored_bytes_per_edge", "B", "lower"),
    ("simcluster.comm.messages", "count", "lower"),
    ("simcluster.comm.bytes", "B", "lower"),
    ("simcluster.sched.runs", "count", "lower"),
    ("simcluster.sched.resumptions", "count", "lower"),
    ("program.self_us_per_resumption", "us", "lower"),
    ("graphdb.store_edges.calls", "count", "lower"),
    ("graphdb.expand_fringe.calls", "count", "lower"),
    ("graphdb.scan_adjacency.calls", "count", "lower"),
    ("graphdb.get_adjacency.calls", "count", "lower"),
    ("graphdb.degree_many.calls", "count", "lower"),
    ("graphdb.edges_scanned", "count", "lower"),
    ("graphdb.adjacency_requests", "count", "lower"),
    ("bfs.levels", "count", "lower"),
    ("bfs.bottom_up_levels", "count", "lower"),
    ("bfs.edges_examined", "count", "lower"),
    ("bfs.edges_skipped", "count", "higher"),
    ("bfs.failovers", "count", "lower"),
    ("services.scheduler.rounds", "count", "lower"),
    ("services.scheduler.shared_passes", "count", "lower"),
    ("services.scheduler.shared_served", "count", "higher"),
    ("services.scheduler.virtual_latency_p50_ms", "ms", "lower"),
    ("services.scheduler.virtual_latency_p99_ms", "ms", "lower"),
    ("services.ingestion.windows", "count", "lower"),
    ("services.ingestion.entries_stored", "count", "lower"),
    ("services.ingestion.backend_imbalance", "ratio", "lower"),
    ("services.streaming.compact_wall_s", "s", "lower"),
    ("services.streaming.compact_virtual_s", "s", "lower"),
    ("services.streaming.entries_folded", "count", "lower"),
    ("services.streaming.snapshots_served", "count", "higher"),
    ("services.vertexprog.pagerank_wall_s", "s", "lower"),
    ("services.vertexprog.components_wall_s", "s", "lower"),
    ("services.vertexprog.supersteps", "count", "lower"),
    ("services.vertexprog.edges_scanned", "count", "lower"),
    ("framework.solo_phi", "%", "higher"),
    ("framework.solo_wall_phi_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("host.spin_ms", "ms", "lower"),
)

#: name -> (unit, better): the 13 x 4 self-time matrix, then the counters.
PER_LAYER = {
    f"{phase}.{layer}.self_s": ("s", "lower") for phase in PHASES for layer in LAYERS
}
PER_LAYER.update({name: (unit, better) for name, unit, better in _COUNTERS})


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def typical_walls(reps: list[Repetition], raw: bool = False) -> list[float]:
    """Per-operation median over the repetitions (``raw``: of the walls as
    the clock read them, not at the reference host's speed)."""
    pick = (lambda op: op.raw_wall_s) if raw else (lambda op: op.wall_s)
    return [
        statistics.median(pick(rep.ops[i]) for rep in reps) for i in range(len(reps[0].ops))
    ]


def wall_metrics(first: Repetition, walls: list[float]) -> dict[str, float]:
    """The wall metrics, given one wall per operation of ``first.ops``."""
    by_phase: dict[str, list[float]] = {phase: [] for phase in PHASES}
    for op, wall in zip(first.ops, walls):
        by_phase[op.phase].append(wall)
    solo = by_phase["solo"]
    n_drain = first.phase_ops("drain")[0].attempted
    return {
        "ingest_wall_eps": first.counts["edges_ingested"] / sum(by_phase["ingest"]),
        "solo_wall_p50_ms": 1e3 * statistics.median(solo),
        "solo_wall_qps": len(solo) / sum(solo),
        "drain_wall_qps": n_drain / sum(by_phase["drain"]),
        "analytics_wall_s": sum(by_phase["analytics"]),
    }


def end_to_end(reps: list[Repetition], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    first = reps[0]
    virtual = {phase: [op.virtual_s for op in first.phase_ops(phase)] for phase in PHASES}
    n_solo = len(virtual["solo"])
    n_drain = first.phase_ops("drain")[0].attempted
    counts = first.counts
    values = {
        "setup_s": setup_s,
        "ingest_virtual_eps": counts["edges_ingested"] / sum(virtual["ingest"]),
        "solo_virtual_mean_ms": 1e3 * sum(virtual["solo"]) / n_solo,
        "drain_virtual_qps": n_drain / sum(virtual["drain"]),
        "analytics_virtual_s": sum(virtual["analytics"]),
        "io_bytes_per_query": (counts["solo_device_bytes_read"] + counts["solo_wire_bytes"])
        / n_solo,
        "peak_rss_mb": peak_rss_mb,
    }
    values.update(wall_metrics(first, typical_walls(reps)))
    return {name: values[name] for name in END_TO_END}


def repetition_spread(reps: list[Repetition]) -> dict[str, float]:
    """(max - min) / min of each wall metric computed per repetition.

    What the host did to this process between repetitions; ``compare.py``
    calls a difference it cannot tell from this ``unresolved``.
    """
    per_rep = [wall_metrics(reps[0], [op.wall_s for op in rep.ops]) for rep in reps]
    return {
        name: (max(m[name] for m in per_rep) - min(m[name] for m in per_rep))
        / min(m[name] for m in per_rep)
        for name in per_rep[0]
    }


def tail_percentile(n_samples: int) -> int:
    """Highest percentile with at least ten samples beyond it (0 = none
    above the median: 16 samples support no tail statistic, 48 give p79)."""
    phi = int(100 * (n_samples - 10) / n_samples) if n_samples > 10 else 0
    return phi if phi > 50 else 0


def per_layer(
    untraced: list[Repetition],
    traced: Repetition,
    tracer,
    spin_ms: float,
) -> dict[str, float]:
    """Per-layer metrics of the traced pass.

    Span-derived values and counts come from ``traced``; the ``*_wall_s``
    values and the solo tail come from the untraced repetitions of the
    same process, because tracing inflates them.
    """
    values: dict[str, float] = {}
    # Spans are on the raw clock; so is the wall they are compared with.
    phase_wall = {
        phase: sum(op.raw_wall_s for op in traced.phase_ops(phase)) for phase in PHASES
    }
    attributed = 0.0
    for phase in PHASES:
        for layer, self_s in tracer.layer_self_seconds(phase).items():
            values[f"{phase}.{layer}.self_s"] = self_s
            attributed += self_s

    spans, measured, started = tracer.spans, tracer.measured_sum, tracer.started_sum
    c = traced.counts
    varint_calls = spans("util.varint")
    values["util.varint.calls"] = varint_calls
    values["util.varint.values"] = measured("util.varint")
    values["util.varint.values_per_call"] = (
        values["util.varint.values"] / varint_calls if varint_calls else 0.0
    )
    values["util.bitset.calls"] = spans("util.bitset")
    cache_stats = tracer.cache_stats
    gets = sum(s.hits + s.misses for s in cache_stats)
    values["storage.blockcache.gets"] = gets
    values["storage.blockcache.hit_rate"] = (
        sum(s.hits for s in cache_stats) / gets if gets else 0.0
    )
    values["storage.blockcache.evictions"] = sum(s.evictions for s in cache_stats)
    values["storage.integrity.calls"] = spans("storage.integrity")
    values["storage.integrity.bytes"] = measured("storage.integrity")
    values["storage.deltalog.appends"] = spans("storage.deltalog", "append")
    values["storage.deltalog.bytes"] = measured("storage.deltalog")
    for key in ("reads", "writes", "bytes_read", "bytes_written", "seeks"):
        values[f"simcluster.disk.{key}"] = c[f"disk_{key}"]
    values["simcluster.disk.virtual_busy_s"] = c["disk_busy_seconds"]
    n_solo = len(traced.phase_ops("solo"))
    values["simcluster.disk.read_bytes_per_query"] = c["solo_device_bytes_read"] / n_solo
    values["simcluster.disk.stored_bytes_per_edge"] = c["stored_bytes"] / c["edges_total"]
    values["simcluster.comm.messages"] = c["comm_messages"]
    values["simcluster.comm.bytes"] = c["comm_bytes"]
    values["simcluster.sched.runs"] = spans("simcluster.sched")
    resumptions = spans("program")
    values["simcluster.sched.resumptions"] = resumptions
    program_self = sum(values[f"{phase}.program.self_s"] for phase in PHASES)
    values["program.self_us_per_resumption"] = (
        1e6 * program_self / resumptions if resumptions else 0.0
    )
    for method in ("store_edges", "expand_fringe", "get_adjacency", "degree_many"):
        values[f"graphdb.{method}.calls"] = spans("graphdb", method)
    # A generator: count the scans started, not their resumptions.
    values["graphdb.scan_adjacency.calls"] = started("graphdb", "scan_adjacency")
    values["graphdb.edges_scanned"] = c["graphdb_edges_scanned"]
    values["graphdb.adjacency_requests"] = c["graphdb_adjacency_requests"]
    for key in ("levels", "bottom_up_levels", "edges_examined", "edges_skipped", "failovers"):
        values[f"bfs.{key}"] = c[f"bfs_{key}"]
    for key in ("rounds", "shared_passes", "shared_served"):
        values[f"services.scheduler.{key}"] = c[f"drain_{key}"]
    for key in ("virtual_latency_p50_ms", "virtual_latency_p99_ms"):
        values[f"services.scheduler.{key}"] = c[f"drain_{key}"]
    values["services.ingestion.windows"] = c["ingest_windows"]
    values["services.ingestion.entries_stored"] = c["ingest_entries_stored"]
    values["services.ingestion.backend_imbalance"] = c["ingest_backend_imbalance"]

    untraced_walls = typical_walls(untraced)
    walls = dict(zip((op.name for op in untraced[0].ops), untraced_walls))
    compact = [op for op in traced.ops if op.name == "compact"]
    values["services.streaming.compact_wall_s"] = walls.get("compact", 0.0)
    values["services.streaming.compact_virtual_s"] = compact[0].virtual_s if compact else 0.0
    values["services.streaming.entries_folded"] = c.get("compact_entries_folded", 0)
    values["services.streaming.snapshots_served"] = c["drain_snapshots_served"]
    values["services.vertexprog.pagerank_wall_s"] = walls["pagerank"]
    values["services.vertexprog.components_wall_s"] = walls["components"]
    values["services.vertexprog.supersteps"] = c["vertexprog_supersteps"]
    values["services.vertexprog.edges_scanned"] = c["vertexprog_edges_scanned"]

    solo = sorted(
        wall for op, wall in zip(untraced[0].ops, untraced_walls) if op.phase == "solo"
    )
    phi = tail_percentile(len(solo))
    values["framework.solo_phi"] = phi
    values["framework.solo_wall_phi_ms"] = 1e3 * percentile(solo, phi) if phi else 0.0
    values["trace.overhead_ratio"] = traced.wall_s / min(rep.wall_s for rep in untraced)
    measured_wall = sum(phase_wall.values())
    values["trace.unattributed_share"] = abs(measured_wall - attributed) / measured_wall
    values["host.spin_ms"] = spin_ms
    return {name: float(values[name]) for name in PER_LAYER}
