"""The failover protocol, pinned from outside.

Three things no other suite holds still:

* **golden rows** — every rank program that fails over (Algorithm 1,
  Algorithm 2, the bottom-up level, the vertex-program superstep loop, the
  triangle sweep) under every kind of fault, each row pinning the answer,
  the *virtual clock* and the failover counters bit for bit.  The literals
  were recorded on the commit before ``bfs/failover.py`` became the one
  owner of the retry protocol (``python tests/test_failover_protocol.py``
  prints them), so a refactor that moves a yield, a payload byte or a
  counter shows up here;
* **the responsibility partition** — for any cluster size, chain shape,
  dead set and vertex ids, the ranks' responsibility sets partition exactly
  the vertices whose chain has a live member (what additive combiners rely
  on: no vertex's messages are produced twice, none is silently skipped) —
  and ``serve_once``, the loop every rank program serves a candidate set
  through, keeps that true when ranks die in the middle of a round;
* **regressions**: ``path`` rides the failover protocol (a killed device
  used to raise out of its private loop); and the two the single guard /
  single epilogue fix — a deadline-aborted BFS stays ``partial`` on a
  fault-tolerant deployment, and ``triangles`` without failover raises the
  storage error it hit.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.bfs import FaultTolerance, FTState
from repro.bfs.failover import (
    MAX_RETRIES,
    guard,
    is_down,
    responsibility,
    route_to_replicas,
    serve_once,
)
from repro.graphgen import pubmed_like
from repro.simcluster import DiskFault, FaultPlan, SimCluster
from repro.util import CorruptBlockError, DeviceFailedError

EDGES = pubmed_like(500, seed=17)
SOURCE, DEST = 3, 441
BACKENDS = 4
FRONTENDS = 1
#: Vertex type = id parity, for the ``typed-bfs`` rows.
TYPE_CODES = {int(v): int(v) % 2 for v in np.unique(EDGES)}

#: The six default-on feature knobs pinned off: the paper's prototype.
PAPER_KNOBS = dict(
    batch_io=False,
    direction_opt=False,
    checksums=False,
    compress_adjacency=False,
    shared_scans=False,
    cache_policy="lru",
)

#: analysis id -> (registered analysis, query parameters)
ANALYSES = {
    "bfs": ("bfs", dict(source=SOURCE, dest=DEST)),
    # Pure top-down: Algorithm 1's failover rounds run at every level.
    "bfs-push": ("bfs", dict(source=SOURCE, dest=DEST, direction_opt=False)),
    "pipelined-bfs": ("pipelined-bfs", dict(source=SOURCE, dest=DEST)),
    # Pure top-down Algorithm 2: the chunk protocol and the post-failover
    # exchange run at every level; a small poll batch makes several chunks.
    "pipelined-push": (
        "pipelined-bfs",
        dict(source=SOURCE, dest=DEST, direction_opt=False, threshold=8, poll_batch=4),
    ),
    # Level 1 pushes, every later level pulls: the bottom-up retry rounds run
    # (forced on, so the "paper" rows pull with failover off).
    "bfs-pull": (
        "bfs",
        dict(
            source=SOURCE,
            dest=DEST,
            direction_opt=True,
            direction_schedule=("top-down", "bottom-up"),
        ),
    ),
    # Every level pulls: a slow device first shows in the claim scan itself.
    "bfs-pull-all": (
        "bfs",
        dict(source=SOURCE, dest=DEST, direction_opt=True, direction_schedule=("bottom-up",)),
    ),
    # Algorithm 1 through the vertex-type lens: odd ids only, which takes the
    # super-hub (vertex 0) out of every fringe; push and pull levels both run.
    "typed-bfs": ("typed-bfs", dict(source=SOURCE, dest=DEST, allowed_codes=(1,))),
    # Algorithm 1, then the backward walk: one more expand + failover round
    # per hop of the chain.
    "path": ("path", dict(source=SOURCE, dest=DEST)),
    "pagerank": ("pagerank", dict(max_iters=4)),
    "components": ("components", {}),
    "ego-net": ("ego-net", dict(source=SOURCE, hops=3, return_vertices=True)),
    "triangles": ("triangles", {}),
}


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:12]


#: The device every adjacency read of a back-end goes through.
DATA_DEVICE = {"StreamDB": "streamdb", "grDB": "grdb_L0"}


def _kill_mid_query(mssg, backend: str, q: int, served: int = 1) -> FaultPlan:
    """Back-end ``q``'s data device serves ``served`` more operations, then
    dies: by default the query's first read succeeds and the fault lands in
    the middle of it."""
    name = DATA_DEVICE[backend]
    node = mssg.cluster.nodes[FRONTENDS + q]
    ops = max(dev.ops for n, dev in node._disks.items() if n.startswith(name))
    return FaultPlan.kill_node(FRONTENDS + q, after_ops=ops + served, device=name)


#: Rows whose query reads each back-end's data device once (StreamDB's
#: triangle count: one log replay, its source list read from RAM), so the
#: "fail" fault takes that one read.
ONE_READ = {("triangles", "StreamDB")}


def _deploy(backend: str, scenario: str, served: int = 1) -> MSSG:
    """One deployment per row: ingest healthy, then arrange the fault."""
    cfg = dict(
        num_backends=BACKENDS,
        num_frontends=FRONTENDS,
        backend=backend,
        cache_blocks=0,  # every adjacency request reaches the device
        replication=2,
    )
    if scenario == "paper":
        cfg.update(PAPER_KNOBS, replication=1)
    elif scenario == "slow":
        cfg.update(attempt_timeout=0.08)
    elif scenario in ("known-dead", "rebalanced"):
        # Disarmed while the stores are created, live for the ingest run.
        cfg.update(fault_plan=FaultPlan.kill_node(FRONTENDS + 1, at_time=0.004))
        cfg["fault_plan"].disarm()
    mssg = MSSG(MSSGConfig(**cfg))
    if cfg.get("fault_plan") is not None:
        cfg["fault_plan"].arm()
    ingest = mssg.ingest(EDGES)
    if scenario in ("known-dead", "rebalanced"):
        assert ingest.failed_backends == (1,) and ingest.lost_entries == 0
    if scenario == "rebalanced":
        assert mssg.rebalance().copies_restored > 0
    elif scenario == "fail":
        mssg.set_fault_plan(_kill_mid_query(mssg, backend, 1, served))
    elif scenario == "corrupt":
        mssg.set_fault_plan(
            FaultPlan([DiskFault(node=FRONTENDS + 2, kind="corrupt", at_time=0.0)])
        )
    elif scenario == "slow":
        mssg.set_fault_plan(
            FaultPlan([DiskFault(node=FRONTENDS + 1, kind="slow", at_time=0.0)])
        )
    elif scenario == "chain-dead":
        # Back-ends 1 and 2 hold both copies of partition 1.
        mssg.set_fault_plan(
            FaultPlan([DiskFault(node=FRONTENDS + q, at_time=0.0) for q in (1, 2)])
        )
    return mssg


def _run_row(analysis: str, backend: str, scenario: str):
    name, params = ANALYSES[analysis]
    with _deploy(backend, scenario, 0 if (analysis, backend) in ONE_READ else 1) as mssg:
        if name == "typed-bfs":  # the type table is RAM: no device operation
            mssg.query("load-vertex-types", type_codes=TYPE_CODES)
        r = mssg.query(name, **params)
        fired = bool(
            r.failovers + r.device_failures + len(r.corrupt_backends)
            or r.partial
            or mssg.queries.known_dead
        )
    row = (
        _digest(r.result),
        repr(r.seconds),
        r.failovers,
        r.dropped_vertices,
        r.partial,
        r.device_failures,
        r.corrupt_backends,
        r.levels,
        r.edges_scanned,
    )
    return row, fired


#: (analysis, backend, scenario) -> (answer digest, repr(seconds), failovers,
#: dropped_vertices, partial, device_failures, corrupt_backends, levels,
#: edges_scanned), recorded on the parent commit.
#:
#: Re-recorded once, ``seconds`` only, for the eight grDB rows that run a
#: storage-order sweep — PR 19's stated model change: all wanted chains walk
#: together, every block is read once per sweep, a claimed vertex's chain is
#: dropped.  The other eight fields of each were first shown equal to the
#: parent's, and each fault row still fires.  The parent's seconds:
#: bfs/healthy 0.05865676258181803, bfs/chain-dead 0.10066319803636391,
#: bfs-pull/fail 0.08335101298181814, bfs-pull/known-dead 0.05885992759999982,
#: bfs-pull/paper 0.09043396774545479, bfs-pull-all/slow 1.2706660504363343,
#: pipelined-bfs/corrupt 0.08343130778181827 (all lower now), and
#: components/paper 0.11740649083636456 (last digit: the per-sub-block
#: charges of a run now follow its read instead of the round's last read).
#: Every StreamDB row and every top-down grDB row is unedited, and so are
#: grDB's pagerank/fail and triangles/corrupt, whose sweeps charge the same.
#:
#: Re-recorded once more, ``seconds`` only, for the twelve StreamDB rows
#: whose query enumerates its local sources: ``local_vertices`` is served
#: from the RAM out-degree census instead of a whole-log replay, a stated
#: model change.  The other eight fields are unchanged and each fault row
#: still fires (triangles/fail through ``ONE_READ``).
GOLDEN = {
    ("bfs", "grDB", "healthy"): (
        "4e07408562be", "0.05049175425454536",
        0, 0, False, 0, (), 3, 737,
    ),
    ("pipelined-bfs", "StreamDB", "healthy"): (
        "4e07408562be", "0.028991631963636362",
        0, 0, False, 0, (), 3, 737,
    ),
    ("pipelined-push", "grDB", "healthy"): (
        "4e07408562be", "0.5508012663636349",
        0, 0, False, 0, (), 3, 6893,
    ),
    ("pipelined-bfs", "grDB", "paper"): (
        "4e07408562be", "2.6011971357454695",
        0, 0, False, 0, (), 3, 6803,
    ),
    ("pipelined-push", "StreamDB", "paper"): (
        "4e07408562be", "0.27937341578181824",
        0, 0, False, 0, (), 3, 6803,
    ),
    ("bfs-pull", "grDB", "paper"): (
        "4e07408562be", "0.06592616774545465",
        0, 0, False, 0, (), 3, 1043,
    ),
    ("components", "grDB", "paper"): (
        "a517133bf04f", "0.11740649083636455",
        0, 0, False, 0, (), 4, 15280,
    ),
    ("bfs-push", "grDB", "fail"): (
        "4e07408562be", "0.10793145661818195",
        1, 0, False, 1, (), 3, 7240,
    ),
    ("pipelined-push", "StreamDB", "fail"): (
        "4e07408562be", "0.2970734404000005",
        2, 0, False, 1, (), 3, 6990,
    ),
    ("bfs-pull", "StreamDB", "fail"): (
        "4e07408562be", "0.03787955098181815",
        1, 0, False, 1, (), 3, 760,
    ),
    ("pagerank", "grDB", "fail"): (
        "2f24ec820456", "0.19109420647272768",
        1, 0, False, 1, (), 5, 34470,
    ),
    ("bfs-pull", "grDB", "fail"): (
        "4e07408562be", "0.05892914298181804",
        1, 0, False, 1, (), 3, 760,
    ),
    ("triangles", "StreamDB", "fail"): (
        "35531e0b7fb7", "0.026875920800000005",
        1, 0, False, 1, (), 3, 6894,
    ),
    ("bfs", "StreamDB", "corrupt"): (
        "4e07408562be", "0.03800567959999998",
        1, 0, False, 0, (2,), 3, 827,
    ),
    ("pipelined-bfs", "grDB", "corrupt"): (
        "4e07408562be", "0.07503771120000025",
        1, 0, False, 0, (2,), 3, 827,
    ),
    ("components", "StreamDB", "corrupt"): (
        "a517133bf04f", "0.04916823410909089",
        1, 0, False, 0, (2,), 4, 15280,
    ),
    ("triangles", "grDB", "corrupt"): (
        "35531e0b7fb7", "0.06661475807272722",
        1, 0, False, 0, (2,), 3, 6894,
    ),
    ("bfs-push", "StreamDB", "slow"): (
        "4e07408562be", "0.43354303290909085",
        1, 0, False, 0, (), 3, 6983,
    ),
    ("bfs-pull-all", "grDB", "slow"): (
        "4e07408562be", "1.2623541684363373",
        1, 0, False, 0, (), 3, 6465,
    ),
    ("pipelined-push", "grDB", "slow"): (
        "4e07408562be", "1.3400809923999955",
        2, 0, False, 0, (), 3, 7330,
    ),
    ("pagerank", "StreamDB", "slow"): (
        "2f24ec820456", "0.45731776810909097",
        1, 0, False, 0, (), 5, 36169,
    ),
    ("bfs-pull", "grDB", "known-dead"): (
        "4e07408562be", "0.05060189759999986",
        0, 0, False, 0, (), 3, 737,
    ),
    ("components", "StreamDB", "known-dead"): (
        "a517133bf04f", "0.03984804894545453",
        0, 0, False, 0, (), 4, 15280,
    ),
    ("bfs", "grDB", "chain-dead"): (
        "dc937b598926", "0.09242749403636401",
        1, 36, True, 2, (), 5, 821,
    ),
    ("pipelined-push", "StreamDB", "chain-dead"): (
        "dc937b598926", "0.5110700422181806",
        2, 253, True, 2, (), 5, 5359,
    ),
    ("ego-net", "grDB", "chain-dead"): (
        "aa447d8cf4d2", "0.1075398789090911",
        1, 110, True, 2, (), 3, 5117,
    ),
    ("triangles", "StreamDB", "chain-dead"): (
        "91182fbfa4ae", "0.024899342072727274",
        1, 29408, True, 2, (), 3, 5195,
    ),
    ("pipelined-bfs", "StreamDB", "rebalanced"): (
        "4e07408562be", "0.030407408763636363",
        0, 0, False, 0, (), 3, 737,
    ),
    ("ego-net", "StreamDB", "rebalanced"): (
        "99152c17a88f", "0.029618675381818185",
        0, 0, False, 0, (), 3, 6803,
    ),
    ("triangles", "StreamDB", "rebalanced"): (
        "35531e0b7fb7", "0.018266312909090913",
        0, 0, False, 0, (), 2, 6894,
    ),
    # Recorded on the commit that put ``typed-bfs`` and ``path`` on the BFS
    # driver (before it neither went through bfs/failover.py at all).
    ("typed-bfs", "grDB", "healthy"): (
        "4e07408562be", "0.058666491236363486",
        0, 0, False, 0, (), 3, 1093,
    ),
    ("typed-bfs", "StreamDB", "fail"): (
        "4e07408562be", "0.03802839265454543",
        1, 0, False, 1, (), 3, 1233,
    ),
    ("typed-bfs", "grDB", "corrupt"): (
        "4e07408562be", "0.08304978978181836",
        1, 0, False, 0, (2,), 3, 1183,
    ),
    ("typed-bfs", "StreamDB", "chain-dead"): (
        "dc937b598926", "0.05665584370909083",
        1, 55, True, 2, (), 5, 925,
    ),
    ("path", "StreamDB", "healthy"): (
        "e4eab5467eb2", "0.04813080309090904",
        0, 0, False, 0, (), 3, 756,
    ),
    ("path", "grDB", "fail"): (
        "e4eab5467eb2", "0.08426491483636364",
        1, 0, False, 1, (), 3, 779,
    ),
    ("path", "StreamDB", "corrupt"): (
        "e4eab5467eb2", "0.05723914745454539",
        1, 0, False, 0, (2,), 3, 846,
    ),
    ("path", "grDB", "chain-dead"): (
        "dc937b598926", "0.09242749403636401",
        1, 36, True, 2, (), 5, 821,
    ),
    # A pull level over a wholly dead chain: nobody can enumerate partition
    # 1's unvisited vertices, so nothing is dropped and only ``partial`` can
    # say the level was incomplete.  The parent commit reported these two
    # ``partial=False`` with every other field as here.
    ("pipelined-bfs", "grDB", "chain-dead"): (
        "dc937b598926", "0.08459864832727303",
        1, 0, True, 2, (), 5, 795,
    ),
    ("bfs-pull-all", "StreamDB", "chain-dead"): (
        "dc937b598926", "0.05750754981818175",
        1, 0, True, 2, (), 5, 3622,
    ),
}

HEALTHY = ("healthy", "paper")


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_golden_row(key):
    row, fired = _run_row(*key)
    assert row == GOLDEN[key]
    # No vacuous rows: a fault scenario whose fault never fired pins nothing.
    assert fired == (key[2] not in HEALTHY)


def test_golden_matrix_covers_every_program_and_fault():
    assert len(GOLDEN) <= 40
    assert {k[0] for k in GOLDEN} == set(ANALYSES)
    assert {k[1] for k in GOLDEN} == {"StreamDB", "grDB"}
    assert {k[2] for k in GOLDEN} == {
        "healthy", "paper", "fail", "corrupt", "slow", "known-dead", "chain-dead",
        "rebalanced",
    }


# --- (b) the responsibility partition ----------------------------------------


@st.composite
def _clusters(draw):
    """``(p, FaultTolerance, dead set, vertex ids)``: rotational chains, or an
    explicit map shaped like a rebalance pass leaves it — the survivors of
    each rotational chain, in order, then alive non-holders."""
    p = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=1, max_value=p))
    dead = draw(st.sets(st.integers(min_value=0, max_value=p - 1)))
    chains = None
    if draw(st.booleans()):
        chains = []
        for u in range(p):
            holders = [(u + j) % p for j in range(k) if (u + j) % p not in dead]
            spare = [t for t in range(p) if t not in dead and t not in holders]
            extra = draw(st.lists(st.sampled_from(spare), unique=True)) if spare else []
            chains.append(tuple(holders + extra))
        chains = tuple(chains)
    cfg = FaultTolerance(replication=k, chains=chains)
    vertices = draw(st.lists(st.integers(min_value=0, max_value=10_000), unique=True))
    return p, cfg, dead, np.array(sorted(vertices), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_clusters())
def test_responsibility_sets_partition_the_reachable_vertices(cluster):
    p, cfg, dead, vertices = cluster

    def owner_of(vs):
        return vs % p

    def state():
        ft = FTState(cfg, p)
        ft.dead.update(dead)
        return ft

    shares = [responsibility(vertices, owner_of, rank, state()) for rank in range(p)]
    reachable = np.array(
        [
            v
            for v in vertices
            if any(r not in dead for r in state().chain_of(int(v) % p))
        ],
        dtype=np.int64,
    )
    merged = np.concatenate(shares) if shares else vertices[:0]
    # Disjoint and jointly exhaustive over the reachable vertices ...
    assert len(merged) == len(np.unique(merged))
    assert np.array_equal(np.sort(merged), reachable)
    # ... no dead rank is handed anything, and the rest route nowhere.
    assert all(not len(shares[q]) for q in dead)
    routes = route_to_replicas(owner_of(vertices), state())
    assert np.array_equal(vertices[routes == -1], np.setdiff1d(vertices, reachable))


@settings(max_examples=200, deadline=None)
@given(_clusters(), st.data())
def test_serve_once_serves_each_reachable_candidate_once_through_deaths(cluster, data):
    """Ranks of ``dies`` lose their device inside the attempt of round 1 or 2;
    the ones of ``dead`` were on record as dead before the run.  Candidates
    are the same array on every rank, or each rank's own stored slice."""
    p, cfg, dead, vertices = cluster
    cfg = dataclasses.replace(cfg, known_dead=frozenset(dead))
    alive = [q for q in range(p) if q not in dead]
    dies = data.draw(
        st.dictionaries(st.sampled_from(alive), st.sampled_from([1, 2])) if alive else st.just({})
    )
    per_rank = data.draw(st.booleans())
    # A round-2 death happens only if a round-1 death opened round 2.
    round_two = 1 in dies.values()
    down = dead | {q for q, k in dies.items() if k == 1 or round_two}
    chain_of = FTState(cfg, p).chain_of

    def owner_of(vs):
        return vs % p

    def program(ctx):
        rank = ctx.rank
        ft = FTState.start(cfg, p, rank)
        attempts, exchanges = [], []

        def attempt(todo):
            with guard(ctx, ft):
                if dies.get(rank) == len(exchanges) + 1:
                    raise DeviceFailedError("injected")
            attempts.append((len(exchanges), todo.tolist(), not is_down(ft)))

        def exchange(_):
            exchanges.append(None)
            return (yield from ctx.comm.allgather(is_down(ft)))

        def stored_here():
            return vertices[np.array([rank in chain_of(int(v) % p) for v in vertices], dtype=bool)]

        candidates = stored_here if per_rank else vertices
        flags = yield from serve_once(ctx, ft, candidates, owner_of, attempt, exchange)
        return ft, attempts, len(exchanges), list(flags)

    runs = SimCluster(p).run(program)
    # Every rank runs the same number of exchanges, within the budget, and
    # ends on the same dead set.
    assert len({n for _, _, n, _ in runs}) == 1 and runs[0][2] <= 1 + MAX_RETRIES
    assert all(flags == [q in down for q in range(p)] for *_, flags in runs)
    # No rank attempts a vertex twice; with deaths in round 1 only, no two
    # ranks that survived their round do either.
    survived = {}
    for rank, (_, attempts, _, _) in enumerate(runs):
        tried = [v for _, todo, _ in attempts for v in todo]
        assert len(tried) == len(set(tried))
        for v in (v for _, todo, ok in attempts if ok for v in todo):
            assert v not in survived or round_two and 2 in dies.values()
            survived[v] = rank
    # Every candidate with a live holder is attempted exactly once by a rank
    # up at the end — the one serving it under the final dead set.
    final = FTState(cfg, p)
    final.dead.update(down)
    routes = route_to_replicas(owner_of(vertices), final)
    served = [(v, rank) for rank, (_, attempts, _, _) in enumerate(runs) if rank not in down
              for _, todo, _ in attempts for v in todo]
    assert sorted(served) == sorted((int(v), int(r)) for v, r in zip(vertices, routes) if r >= 0)
    # The rest are counted once (rank-uniform) or flagged (per rank).
    fts = [ft for ft, *_ in runs]
    lost = int((routes == -1).sum())
    if per_rank:
        whole_chain_dead = {u for u in range(p) if all(r in down for r in chain_of(u))}
        assert sum(ft.dropped for ft in fts) == 0
        assert {q for q, ft in enumerate(fts) if ft.partial} == whole_chain_dead
    else:
        assert sum(ft.dropped for ft in fts) == lost
        assert all(ft.partial == bool(lost) for ft in fts)
    retried = sum(1 for _, attempts, _, _ in runs for k, todo, _ in attempts if k and todo)
    assert sum(ft.failovers for ft in fts) == retried


# --- (c) regressions -------------------------------------------------------------


def _valid_chain(path) -> bool:
    pairs = {tuple(e) for e in np.vstack([EDGES, EDGES[:, ::-1]]).tolist()}
    return path[0] == SOURCE and path[-1] == DEST and all(
        hop in pairs for hop in zip(path, path[1:])
    )


@pytest.mark.parametrize("backend", ["grDB", "StreamDB"])
@pytest.mark.parametrize("victim", range(BACKENDS))
def test_path_survives_a_killed_device(backend, victim):
    # The per-vertex loop ``path`` used to be never reached bfs/failover.py:
    # one dead device under replication=2 raised DeviceFailedError.  Now it
    # is query_bfs plus a walk: a valid chain of the same length, or an
    # honestly flagged None (a post-death pull level may re-mark a settled
    # vertex too high for the walk to step through).
    with _deploy(backend, "healthy") as mssg:
        mssg.set_fault_plan(_kill_mid_query(mssg, backend, victim))
        path = mssg.query("path", source=SOURCE, dest=DEST)
    with _deploy(backend, "healthy") as mssg:
        mssg.set_fault_plan(_kill_mid_query(mssg, backend, victim))
        bfs = mssg.query_bfs(SOURCE, DEST)
    assert bfs.result == 3 and not bfs.partial
    assert path.device_failures == 1 and path.failovers >= 1
    if path.result is None:
        assert path.partial
    else:
        assert not path.partial
        assert len(path.result) - 1 == bfs.result and _valid_chain(path.result)


def test_path_degrades_to_a_flagged_partial_when_unreplicated():
    with _unreplicated_streamdb() as mssg:
        mssg.set_fault_plan(FaultPlan.kill_node(1, at_time=0.0))
        r = mssg.query("path", source=SOURCE, dest=DEST)
    assert r.partial and r.device_failures == 1
    assert r.result is None or _valid_chain(r.result)


@pytest.mark.parametrize("replication", [1, 2])
def test_deadline_abort_reports_partial_on_fault_tolerant_deployments(replication):
    # The epilogue used to overwrite the abort's partial=True with the fault
    # state's partial=False whenever failover was on: "unreachable, exact"
    # for a search that was cut off.
    with MSSG(MSSGConfig(num_backends=4, replication=replication)) as mssg:
        mssg.ingest(EDGES)
        rep = mssg.query_many([(SOURCE, -1), (5, -1)], deadline=1e-9)
    for r in rep.queries:
        assert r.deadline_exceeded and r.partial and r.result is None


_PAGERANK = dict(max_iters=3, return_ranks=True)


@pytest.mark.parametrize(
    "analysis, params, round_one",
    [
        ("degree", dict(vertices=np.unique(EDGES).tolist()), {}),
        ("pagerank", _PAGERANK, dict(max_supersteps=1)),  # its degree census
    ],
    ids=["degree", "pagerank"],
)
def test_a_reader_lost_in_a_retry_round_is_replaced_not_added_to(analysis, params, round_one):
    # Back-end 0 is dead from the start; back-end 1 serves its own share in
    # round 1, then dies taking over 0's in round 2, so round 3 serves both
    # on back-end 2.  What back-end 1 posted in round 1 is void: the answer
    # is exact, not back-end 1's share counted twice.
    def deploy():
        mssg = MSSG(
            MSSGConfig(num_backends=BACKENDS, num_frontends=FRONTENDS, cache_blocks=0, replication=3)
        )
        mssg.ingest(EDGES)
        return mssg

    def device(mssg):
        disks = mssg.cluster.nodes[FRONTENDS + 1]._disks
        return next(dev for name, dev in disks.items() if name.startswith("grdb_L0"))

    with deploy() as mssg:
        ops = device(mssg).ops
        mssg.query(analysis, **dict(params, **round_one))
        own = device(mssg).ops - ops  # back-end 1's round-1 reads
        healthy = mssg.query(analysis, **params)
    with deploy() as mssg:
        mssg.set_fault_plan(
            FaultPlan(
                [
                    DiskFault(node=FRONTENDS, at_time=0.0),
                    DiskFault(node=FRONTENDS + 1, after_ops=device(mssg).ops + own, device="grdb_L0"),
                ]
            )
        )
        r = mssg.query(analysis, **params)
    assert r.result == healthy.result and not r.partial
    assert r.device_failures == 2 and r.failovers == 2


def _unreplicated_streamdb() -> MSSG:
    mssg = MSSG(MSSGConfig(num_backends=2, backend="StreamDB", cache_blocks=0))
    mssg.ingest(EDGES)
    return mssg


@pytest.mark.parametrize("analysis", ["bfs", "components", "triangles"])
def test_storage_errors_propagate_when_failover_is_off(analysis):
    params = dict(source=SOURCE, dest=DEST) if analysis == "bfs" else {}
    # One rotted frame: every analysis raises what the checksum layer raised
    # (triangles used to mask it with an AttributeError on a missing state).
    with _unreplicated_streamdb() as mssg:
        node = mssg.cluster.nodes[FRONTENDS]
        node._disks["streamdb"].backing.write(50, b"\xff\xff\xff")
        with pytest.raises(CorruptBlockError):
            mssg.query(analysis, **params)
    # A dead device: the plain DeviceFailedError.  (Installed on the cluster
    # directly: MSSG.set_fault_plan would switch the failover protocol on.)
    with _unreplicated_streamdb() as mssg:
        mssg.cluster.install_fault_plan(FaultPlan.kill_node(FRONTENDS, at_time=0.0))
        with pytest.raises(DeviceFailedError) as err:
            mssg.query(analysis, **params)
        assert not isinstance(err.value, CorruptBlockError)


if __name__ == "__main__":  # re-record: prints the GOLDEN literals
    for key in GOLDEN:
        row, fired = _run_row(*key)
        flag = "" if fired == (key[2] not in HEALTHY) else "  # VACUOUS"
        print(f"    {key!r}: {row!r},{flag}")
