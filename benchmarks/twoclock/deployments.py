"""Workload table and deployment construction of the two-clock benchmark.

Everything that decides *what* runs lives here: the one scaling constant,
the four workloads with the reason each exists, and the single function
that turns a workload into an ``MSSGConfig`` — so a later benchmark issue
can follow a configuration refactor (``Features`` presets) in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import MSSGConfig
from repro.experiments.harness import (
    DEFAULT_CACHE_BYTES,
    EXPERIMENT_NODE_SPEC,
    default_cache_blocks,
    scaled_grdb_format,
)

#: The benchmark's only scaling constant.  ISSUE 11 asked for 12 000; the
#: driver's cap (92 runs in 3420 s, so ~37 s a run, set-up included) is
#: below what 12 000 costs (one repetition of ``grdb-prod`` alone is ~29 s),
#: so it is lowered for all workloads at once.
ISSUE_VERTICES = 12000
N_VERTICES = 4000
SMOKE_VERTICES = 600

#: The harness's per-node cache budget (64 KiB) shrunk with the graph, so
#: the store stays as many times larger than the cache as at 12 000
#: vertices: 42 grDB blocks of 512 B against ~90 KB/node (``grdb-prod``)
#: and ~0.5 MB/node (``grdb-paper``).
CACHE_BYTES = DEFAULT_CACHE_BYTES * N_VERTICES // ISSUE_VERTICES

#: Seed of the graph's *structure* (see ``inputs.py``: ``--seed`` re-labels
#: the vertices of this one graph, it does not draw a new one).
GRAPH_SEED = 1
AVG_DEGREE = 14.84
HUB_FRACTION = 0.01

NUM_BACKENDS = 4
NUM_FRONTENDS = 1

#: Stratified query list every workload takes a prefix of.
QUERY_POOL = 48
WARMUP_QUERIES = 2

#: Default measuring time of one run; equals ``run_seconds`` in
#: BENCHMARK.json.  Repetitions of the whole phase sequence are added
#: until it is used up (never fewer than ``MIN_REPETITIONS``).
RUN_SECONDS = 20
MIN_REPETITIONS = 2
#: Set-up is repeated and the median reported, as the contract asks.
SETUP_REPEATS = 5

#: streamdb-stream: share of the edge list loaded by ``ingest()``, then
#: streamed before the queries, then streamed inside the drain.
STREAM_BASE_SHARE = 0.50
STREAM_PRE_SHARE = 0.25
STREAM_PRE_BATCHES = 16
STREAM_DRAIN_BATCHES = 8
STREAM_MAX_INFLIGHT = 8

PAGERANK_ITERS = 5

#: The six default-on feature knobs, pinned off: the paper's prototype.
PAPER_KNOBS = dict(
    batch_io=False,
    direction_opt=False,
    checksums=False,
    compress_adjacency=False,
    shared_scans=False,
    cache_policy="lru",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str
    n_solo: int
    n_drain: int
    paper: bool = False
    streaming: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grdb-prod",
            "grDB with every feature knob at its default: the storage stack "
            "(varint codec, grDB format, CRC frames, 2q pool) does most of the work",
            backend="grDB",
            n_solo=16,
            n_drain=32,
        ),
        Workload(
            "grdb-paper",
            "same grDB geometry with the six default-on knobs pinned off: raw words, "
            "private LRU, per-vertex top-down; codec and CRC work is zero, so a "
            "storage-codec change must show nothing here",
            backend="grDB",
            n_solo=16,
            n_drain=32,
            paper=True,
        ),
        Workload(
            "array-floor",
            "in-memory Array backend: storage is bypassed and the wall time is the "
            "rank-program, bitset and scheduler Python that every backend pays",
            backend="Array",
            n_solo=48,
            n_drain=48,
        ),
        Workload(
            "streamdb-stream",
            "StreamDB with streaming on: writes beside reads, scan-shaped reads over "
            "base plus overlay, in-drain ingest at staggered snapshots, then compact()",
            backend="StreamDB",
            n_solo=16,
            n_drain=32,
            streaming=True,
        ),
    )
}


def make_config(workload: Workload) -> MSSGConfig:
    """The deployment a workload runs on.

    Out-of-core deployments use the repo's own mini-graph scaling of the
    paper's hardware, because with bare ``MSSGConfig`` defaults the whole
    store fits the 1 MB cache and queries read no device bytes.
    """
    return MSSGConfig(
        num_backends=NUM_BACKENDS,
        num_frontends=NUM_FRONTENDS,
        backend=workload.backend,
        grdb_format=scaled_grdb_format(),
        cache_blocks=default_cache_blocks(workload.backend, CACHE_BYTES),
        node_spec=EXPERIMENT_NODE_SPEC,
        streaming=workload.streaming,
        **(PAPER_KNOBS if workload.paper else {}),
    )
