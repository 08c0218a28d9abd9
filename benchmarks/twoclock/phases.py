"""One repetition: the fixed phase sequence on a fresh ``MSSG``.

``ingest`` -> 2 untimed warm-up ``query_bfs`` -> ``solo`` -> ``drain`` ->
(``compact()`` when streaming) -> ``analytics``.  Closed loop, one caller:
each façade call is issued when the previous one returns.  Every call is an
*operation*: timed on the wall clock around the call alone, its virtual
seconds read from the report it returns, its answer checked against the
oracle after the clock has stopped.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro import MSSG

import deployments as dep
import oracle
from inputs import Inputs
from metrics import percentile


@dataclass
class Op:
    phase: str
    name: str
    #: Wall seconds at the reference host's speed (``hostspeed``); the raw
    #: wall when no sampler ran.
    wall_s: float
    virtual_s: float
    raw_wall_s: float = 0.0
    #: ``perf_counter`` when the call was issued.
    issued_at: float = 0.0
    #: Answers this operation returned, and how many were wrong.
    attempted: int = 1
    failures: list[str] = field(default_factory=list)


@dataclass
class Repetition:
    ops: list[Op]
    #: Counts read from reports and public counters (all deterministic).
    counts: dict[str, float]
    virtual_fingerprint: str
    #: sha256 over the analytics answers (equal across all four workloads).
    answers_digest: str

    def phase_ops(self, phase: str) -> list[Op]:
        return [op for op in self.ops if op.phase == phase]

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


def _backend_devices(mssg: MSSG):
    front = mssg.config.num_frontends
    for node in mssg.cluster.nodes[front:]:
        # No public accessor exists; the repo's own benches read it the same way.
        yield from node._disks.values()


def _stored_bytes(mssg: MSSG) -> int:
    return sum(dev.size() for dev in _backend_devices(mssg))


def _disk_totals(mssg: MSSG) -> dict[str, float]:
    totals = dict.fromkeys(
        ("reads", "writes", "bytes_read", "bytes_written", "seeks", "busy_seconds"), 0
    )
    for dev in _backend_devices(mssg):
        for key in totals:
            totals[key] += getattr(dev.stats, key)
    return totals


def _wire_totals(mssg: MSSG) -> tuple[int, int]:
    """Messages and bytes sent since deployment (folded + current run)."""
    cluster = mssg.cluster
    messages = sum(n.total_messages_sent for n in cluster.nodes)
    nbytes = sum(n.total_bytes_sent for n in cluster.nodes)
    for ctx in cluster.last_contexts:
        messages += ctx.comm.sent_messages
        nbytes += ctx.comm.sent_bytes
    return messages, nbytes


class _Run:
    """Issues operations and keeps their records (and the tracer in step)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.phase = "idle"

    def enter(self, phase: str) -> None:
        self.phase = phase
        if self.tracer is not None:
            self.tracer.set_phase(phase)

    def call(self, name: str, fn, *args, **kwargs):
        """Time one façade call; returns ``(op, report)``.

        A call that raises is a failed operation, not a crashed benchmark.
        """
        if self.tracer is not None:
            self.tracer.set_op(len(self.ops))
        report = None
        failure = None
        t0 = time.perf_counter()
        try:
            report = fn(*args, **kwargs)
        except Exception as exc:  # the boundary that must keep running
            failure = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        op = Op(self.phase, name, wall, 0.0, raw_wall_s=wall, issued_at=t0)
        if failure is not None:
            op.failures.append(failure)
        self.ops.append(op)
        return op, report


def _check(op: Op, reason: str | None) -> None:
    if reason is not None:
        op.failures.append(f"{op.name}: {reason}")


def run_repetition(
    workload: dep.Workload, inp: Inputs, tracer=None, tamper=None, host=None
) -> Repetition:
    """``host`` is a running ``HostSpeed``: wall seconds are then expressed
    at the reference host's speed.  ``tamper(kind, report)`` lets the
    self-tests corrupt an answer between the call and its check."""
    tamper = tamper or (lambda kind, report: None)
    mssg = MSSG(dep.make_config(workload))
    counts: dict[str, float] = {}
    try:
        run = _Run(tracer)

        # -- ingest ----------------------------------------------------------
        run.enter("ingest")
        op, report = run.call("ingest", mssg.ingest, inp.base_edges)
        if report is None:
            # Nothing after a failed load can be measured.
            raise RuntimeError(f"ingest {op.failures[0]}")
        edges_in = len(inp.base_edges)
        op.virtual_s = report.seconds
        _check(op, oracle.check_ingest(report, 0, edges_in))
        for i, batch in enumerate(inp.pre_batches):
            before = mssg.last_ingest.seconds
            op, report = run.call(f"ingest_stream[{i}]", mssg.ingest_stream, batch)
            if report is not None:
                # The façade returns its *accumulated* report.
                op.virtual_s = report.seconds - before
                _check(op, oracle.check_ingest(report, edges_in, len(batch)))
            edges_in += len(batch)
        counts["edges_ingested"] = edges_in
        counts["edges_total"] = len(inp.edges)
        ingest_report = mssg.last_ingest
        counts["ingest_windows"] = ingest_report.windows
        counts["ingest_entries_stored"] = ingest_report.entries_stored
        per_backend = ingest_report.per_backend_entries
        counts["ingest_backend_imbalance"] = max(per_backend) / (
            sum(per_backend) / len(per_backend)
        )
        stored_bytes = _stored_bytes(mssg)

        # -- warm-up (untimed, unchecked) --------------------------------------
        run.enter("warmup")
        for s, d, _ in inp.queries[: dep.WARMUP_QUERIES]:
            mssg.query_bfs(s, d)

        # -- solo ------------------------------------------------------------
        run.enter("solo")
        disk_before = _disk_totals(mssg)["bytes_read"]
        wire_bytes = 0
        bfs_reports = []
        for s, d, dist in inp.queries[: workload.n_solo]:
            op, report = run.call(f"query_bfs({s},{d})", mssg.query_bfs, s, d)
            if report is not None:
                wire_bytes += sum(c.comm.sent_bytes for c in mssg.cluster.last_contexts)
                tamper("bfs", report)
                op.virtual_s = report.seconds
                _check(op, oracle.check_bfs(report, dist))
                bfs_reports.append(report)
        counts["solo_device_bytes_read"] = _disk_totals(mssg)["bytes_read"] - disk_before
        counts["solo_wire_bytes"] = wire_bytes

        # -- drain -----------------------------------------------------------
        run.enter("drain")
        pairs = [(s, d) for s, d, _ in inp.queries[: workload.n_drain]]
        if workload.streaming:
            op, drain = run.call(
                "query_many",
                mssg.query_many,
                pairs,
                stream_batches=inp.drain_batches,
                stream_every=1,
                max_inflight=dep.STREAM_MAX_INFLIGHT,
            )
        else:
            op, drain = run.call("query_many", mssg.query_many, pairs)
        op.attempted = len(pairs)
        if drain is not None:
            op.virtual_s = drain.seconds
            if len(drain.queries) != len(pairs):
                _check(op, f"{len(drain.queries)} reports for {len(pairs)} queries")
            for (s, d, dist), report in zip(inp.queries, drain.queries):
                tamper("drain", report)
                if workload.streaming:
                    # Each answer against the graph of its own snapshot.
                    graph = inp.csr_at(report.snapshot_seq)
                    _check(op, oracle.check_bfs_on(report, graph, s, d))
                else:
                    _check(op, oracle.check_bfs(report, dist))
            if workload.streaming and drain.stream_batches != len(inp.drain_batches):
                _check(op, f"{drain.stream_batches} stream batches applied in the drain")
            bfs_reports.extend(drain.queries)
            latencies = sorted(r.seconds for r in drain.queries)
            counts["drain_rounds"] = drain.rounds
            counts["drain_shared_passes"] = drain.shared_passes
            counts["drain_shared_served"] = drain.shared_served
            counts["drain_virtual_latency_p50_ms"] = 1e3 * percentile(latencies, 50)
            counts["drain_virtual_latency_p99_ms"] = 1e3 * percentile(latencies, 99)
            counts["drain_snapshots_served"] = len(
                {r.snapshot_seq for r in drain.queries if r.snapshot_seq is not None}
            )
        counts["bfs_levels"] = sum(r.levels for r in bfs_reports)
        counts["bfs_bottom_up_levels"] = sum(
            sum(1 for d in r.directions if d == "bottom-up") for r in bfs_reports
        )
        counts["bfs_edges_examined"] = sum(r.edges_examined for r in bfs_reports)
        counts["bfs_edges_skipped"] = sum(r.edges_skipped for r in bfs_reports)
        counts["bfs_failovers"] = sum(r.failovers for r in bfs_reports)

        # -- compact (streaming): charged to ingest, so work moved there shows --
        if workload.streaming:
            run.enter("ingest")
            op, report = run.call("compact", mssg.compact)
            if report is not None:
                op.virtual_s = report.seconds
                counts["compact_entries_folded"] = report.entries_folded
                if report.failed_backends:
                    _check(op, f"back-ends {report.failed_backends} died")
            stored_bytes = _stored_bytes(mssg)
        counts["stored_bytes"] = stored_bytes

        # -- analytics -------------------------------------------------------
        run.enter("analytics")
        digest = hashlib.sha256()
        op, report = run.call(
            "pagerank",
            mssg.query,
            "pagerank",
            max_iters=dep.PAGERANK_ITERS,
            return_ranks=True,
        )
        supersteps = scanned = 0
        if report is not None:
            tamper("pagerank", report)
            op.virtual_s = report.seconds
            _check(op, oracle.check_pagerank(report, inp.pagerank_ref))
            supersteps += report.levels
            scanned += report.edges_scanned
            # Digest in structural terms: the seed's re-labelling must not show.
            digest.update(repr([f"{r:.9g}" for _, r in report.result["top"]]).encode())
        op, report = run.call("components", mssg.query, "components")
        if report is not None:
            tamper("components", report)
            op.virtual_s = report.seconds
            _check(op, oracle.check_components(report, inp.component_sizes_ref))
            supersteps += report.levels
            scanned += report.edges_scanned
            digest.update(repr(report.result["sizes"]).encode())
        counts["vertexprog_supersteps"] = supersteps
        counts["vertexprog_edges_scanned"] = scanned

        run.enter("idle")
        if tracer is not None:
            tracer.note_caches()
        for key, value in _disk_totals(mssg).items():
            counts[f"disk_{key}"] = value
        counts["comm_messages"], counts["comm_bytes"] = _wire_totals(mssg)
        stats = mssg.backend_stats()
        counts["graphdb_edges_scanned"] = sum(s["edges_scanned"] for s in stats)
        counts["graphdb_adjacency_requests"] = sum(s["adjacency_requests"] for s in stats)

        if host is not None:
            # Now, not per call: the samples *after* a short call count too.
            for op in run.ops:
                op.wall_s = host.normalised(op.issued_at, op.issued_at + op.raw_wall_s)
        fingerprint = hashlib.sha256()
        for op in run.ops:
            fingerprint.update(f"{op.name}={float(op.virtual_s).hex()};".encode())
        for dev in _backend_devices(mssg):
            fingerprint.update(f"{dev.name}:{sorted(vars(dev.stats).items())!r};".encode())
        return Repetition(run.ops, counts, fingerprint.hexdigest(), digest.hexdigest())
    finally:
        mssg.close()

