"""Tests for the scatter/gather vertex-program runtime and its plug-ins.

The acceptance bar of the vertex-program PR: PageRank and WCC produce
identical results on all six backends, a mid-run backend kill at
replication=2 matches the healthy answer, and a mixed BFS+PageRank
``query_many`` drain matches sequential execution bit-identically.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.graphgen import dedupe_edges, preferential_attachment, pubmed_like
from repro.services.vertexprog import _COMBINERS, VPConfig, _combine_posts
from repro.simcluster.faults import DiskFault, FaultPlan
from repro.util.errors import ConfigError

ALL_BACKENDS = ["Array", "HashMap", "MySQL", "BerkeleyDB", "StreamDB", "grDB"]

_EDGES = dedupe_edges(preferential_attachment(150, 2, seed=3))
_TWO_BLOBS = np.vstack(
    [
        dedupe_edges(preferential_attachment(60, 2, seed=1)),
        dedupe_edges(preferential_attachment(40, 2, seed=2)) + 100,
        np.array([[200, 201]]),
    ]
)


def _mssg(backend="HashMap", num_backends=3, **kw):
    return MSSG(MSSGConfig(num_backends=num_backends, backend=backend, **kw))


class TestBackendAgreement:
    """One answer per analysis, regardless of which backend stores the graph."""

    def _all_backend_results(self, analysis, **params):
        results = []
        for backend in ALL_BACKENDS:
            with _mssg(backend) as mssg:
                mssg.ingest(_EDGES)
                results.append(mssg.query(analysis, **params).result)
        return results

    def test_pagerank_identical_on_all_backends(self):
        results = self._all_backend_results("pagerank", return_ranks=True)
        assert all(r == results[0] for r in results[1:])
        assert results[0]["iterations"] >= 2
        # A probability distribution over the present vertices.
        assert np.isclose(sum(results[0]["ranks"].values()), 1.0, atol=1e-6)

    def test_components_identical_on_all_backends(self):
        results = self._all_backend_results("components", return_labels=True)
        assert all(r == results[0] for r in results[1:])

    def test_triangles_identical_on_all_backends(self):
        results = self._all_backend_results("triangles")
        assert all(r == results[0] for r in results[1:])
        assert results[0]["wedges"] >= results[0]["triangles"] * 3

    def test_egonet_identical_on_all_backends(self):
        results = self._all_backend_results("ego-net", source=0, hops=2)
        assert all(r == results[0] for r in results[1:])
        assert results[0]["per_level"][0] == 1  # the source itself


class TestCorrectness:
    def test_components_counts_two_blobs_and_pair(self):
        with _mssg() as mssg:
            mssg.ingest(_TWO_BLOBS)
            result = mssg.query("components", return_labels=True).result
            assert result["num_components"] == 3
            assert result["sizes"][-1] == 2
            assert sum(result["sizes"]) == len(np.unique(_TWO_BLOBS))
            assert result["labels"][201] == 200
            assert all(
                lab == 100 for v, lab in result["labels"].items() if 100 <= v < 200
            )

    def test_matches_networkx(self):
        g = nx.Graph()
        g.add_edges_from(map(tuple, _EDGES.tolist()))
        with _mssg() as mssg:
            mssg.ingest(_EDGES)
            tri = mssg.query("triangles").result
            assert tri["triangles"] == sum(nx.triangles(g).values()) // 3
            comp = mssg.query("components").result
            assert comp["num_components"] == nx.number_connected_components(g)
            pr = mssg.query("pagerank", return_ranks=True).result
            expected = nx.pagerank(g, alpha=0.85, tol=1e-12)
            for v, rank in pr["ranks"].items():
                assert rank == pytest.approx(expected[v], abs=1e-6)

    def test_egonet_matches_neighborhood_analysis(self):
        with _mssg() as mssg:
            mssg.ingest(_EDGES)
            ego = mssg.query("ego-net", source=3, hops=2).result
            assert ego["num_vertices"] == mssg.query("neighborhood", source=3, hops=2).result
            assert sum(ego["per_level"]) == ego["num_vertices"]
            assert len(ego["vertices"]) == ego["num_vertices"]

    def test_result_payload_gates(self):
        with _mssg() as mssg:
            mssg.ingest(_EDGES)
            assert "ranks" not in mssg.query("pagerank").result
            assert "labels" not in mssg.query("components").result
            assert "vertices" not in mssg.query(
                "ego-net", source=0, hops=2, return_vertices=False
            ).result

    def test_forced_schedules_agree(self):
        # The access plan (per-vertex fetches vs storage sweeps) must not
        # change the answer — only the cost.
        with _mssg(backend="grDB") as mssg:
            mssg.ingest(_EDGES)
            auto = mssg.query("components", return_labels=True)
            sparse = mssg.query(
                "components", return_labels=True, schedule=["sparse"]
            )
            dense = mssg.query("components", return_labels=True, schedule=["dense"])
            assert sparse.result == auto.result == dense.result

    def test_edge_granularity_declustering(self):
        # No owner map: every rank scans its own slice of each vertex's
        # adjacency.  min-combine analyses run fine (additive ones refuse
        # only when that would double-count replicated slices).
        with _mssg(declustering="edge-rr") as mssg:
            mssg.ingest(_TWO_BLOBS)
            assert mssg.query("components").result["num_components"] == 3

    def test_analytics_need_sized_id_space(self):
        with _mssg() as mssg:
            with pytest.raises(ConfigError, match="id space"):
                mssg.query("pagerank")


# --- Failover: mid-run device kills through the runtime. -------------------

_FO_EDGES = pubmed_like(600, seed=7)


def _fo_mssg(replication, kill=False, backend="grDB"):
    mssg = MSSG(
        MSSGConfig(
            num_backends=3,
            num_frontends=1,
            backend=backend,
            declustering="vertex-rr",
            replication=replication,
            cache_blocks=4,
        )
    )
    mssg.ingest(_FO_EDGES)
    if kill:
        mssg.set_fault_plan(FaultPlan([DiskFault(node=1, at_time=0.0)]))
    return mssg


class TestFailover:
    @pytest.mark.parametrize("analysis,params", [
        ("pagerank", {}),
        ("components", {}),
        ("triangles", {}),
        ("ego-net", {"source": 3, "hops": 2}),
    ])
    def test_replicated_kill_matches_healthy_answer(self, analysis, params):
        with _fo_mssg(replication=2) as healthy:
            want = healthy.query(analysis, **params).result
        with _fo_mssg(replication=2, kill=True) as faulted:
            report = faulted.query(analysis, **params)
        assert report.result == want
        assert report.device_failures == 1
        assert report.failovers >= 1
        assert not report.partial

    def test_unreplicated_kill_degrades_to_partial(self):
        with _fo_mssg(replication=1, kill=True) as mssg:
            report = mssg.query("pagerank")
            assert report.partial
            assert report.device_failures == 1
            assert report.dropped_vertices > 0

    def test_known_dead_seeding_skips_failover_rounds(self):
        # A backend recorded dead before the query routes around from
        # superstep one: same answer, no failover rounds burned.
        with _fo_mssg(replication=2) as healthy:
            want = healthy.query("components").result
        with _fo_mssg(replication=2) as mssg:
            mssg.queries.known_dead.add(0)
            report = mssg.query("components")
            assert report.result == want
            assert report.failovers == 0


# --- Concurrent drains: analytics through query_many. ----------------------


class TestConcurrentAnalytics:
    def test_mixed_drain_matches_sequential_bit_identically(self):
        pairs = [(0, 7), (3, 11)]
        with _mssg() as mssg:
            mssg.ingest(_EDGES)
            seq = [mssg.query_bfs(s, d).result for s, d in pairs]
            seq_pr = mssg.query("pagerank", return_ranks=True).result
            seq_wcc = mssg.query("components", return_labels=True).result
        with _mssg() as mssg:
            mssg.ingest(_EDGES)
            drain = mssg.query_many(
                pairs,
                analytics=[
                    ("pagerank", {"return_ranks": True}),
                    ("components", {"return_labels": True}),
                ],
            )
        assert [r.analysis for r in drain.queries] == [
            "bfs", "bfs", "pagerank", "components",
        ]
        assert [drain.queries[0].result, drain.queries[1].result] == seq
        assert drain.queries[2].result == seq_pr
        assert drain.queries[3].result == seq_wcc

    def test_shared_scans_do_not_change_answers(self):
        with _mssg(backend="grDB") as mssg:
            mssg.ingest(_EDGES)
            shared = mssg.query_many(
                [(0, 7)], analytics=["pagerank", "components"], shared_scans=True
            )
        with _mssg(backend="grDB") as mssg:
            mssg.ingest(_EDGES)
            solo = mssg.query_many(
                [(0, 7)], analytics=["pagerank", "components"], shared_scans=False
            )
        assert [r.result for r in shared.queries] == [r.result for r in solo.queries]

    def test_analytics_attribution_and_queueing(self):
        with _mssg() as mssg:
            mssg.ingest(_EDGES)
            drain = mssg.query_many(
                [(0, 7)], analytics=["pagerank"], max_inflight=1
            )
            pr = drain.queries[1]
            assert pr.edges_scanned > 0
            assert pr.seconds > 0
            # Admission cap 1: PageRank waited for the BFS to finish.
            assert pr.queue_seconds > 0

    def test_unknown_analysis_rejected_at_submit(self):
        with _mssg() as mssg:
            mssg.ingest(_EDGES)
            with pytest.raises(ConfigError, match="drained concurrently"):
                mssg.queries.submit(analysis="degree")


class TestRegistry:
    def test_runtime_suite_registered(self):
        with _mssg() as mssg:
            names = mssg.queries.analyses()
            for name in ("pagerank", "components", "ego-net", "triangles"):
                assert name in names

    def test_custom_program_plugs_in(self):
        # The VertexProgram contract is public: a max-label propagation
        # program (components' mirror image) registered like any plug-in.
        from repro.services.vertexprog import (
            VertexProgram,
            make_vp_generator,
            vp_report,
        )

        class MaxLabel(VertexProgram):
            name = "max-label"
            combine = "max"

            def init(self, n):
                self.labels = np.arange(n, dtype=np.float64)
                return np.arange(n, dtype=np.int64)

            def edge_messages(self, batch, superstep):
                vals = np.repeat(self.labels[batch.vertices], batch.degrees)
                srcs = np.repeat(batch.vertices, batch.degrees)
                return batch.neighbors, srcs, vals

            def apply(self, combined, has_msg, superstep):
                improved = has_msg & (combined > self.labels)
                self.labels[improved] = combined[improved]
                return np.flatnonzero(improved).astype(np.int64), not improved.any()

            def finalize(self):
                return {"max_label": float(self.labels.max())}

        with _mssg() as mssg:
            mssg.ingest(_TWO_BLOBS)
            from repro.services.vertexprog import PROGRAM_FACTORIES

            PROGRAM_FACTORIES["max-label"] = lambda params: lambda: MaxLabel()
            from repro.services.vertexprog import RESULT_SHAPERS

            RESULT_SHAPERS["max-label"] = lambda params: None
            try:
                service = mssg.queries

                def runner(**params):
                    gen = make_vp_generator(service, "max-label", params, False)
                    results = service._run_on_backends(gen)
                    return vp_report(
                        "max-label", params, results, seconds=service.cluster.makespan
                    )

                service.register("max-label", runner)
                assert mssg.query("max-label").result["max_label"] == 201.0
                with pytest.raises(ConfigError, match="already registered"):
                    service.register("max-label", runner)
            finally:
                PROGRAM_FACTORIES.pop("max-label", None)
                RESULT_SHAPERS.pop("max-label", None)


# --- Reopened storage: the census and the id space survive a reopen. -------


@pytest.mark.parametrize("entry", ["query", "query_many"])
@pytest.mark.parametrize("backend", ["grDB", "StreamDB", "BerkeleyDB", "MySQL"])
def test_vertex_programs_answer_on_reopened_storage(tmp_path, backend, entry):
    # The stored base holds ids up to ~300, the ingest after the reopen only
    # 0..3: the id space the programs size their state from must come from
    # what the reopened stores hold, not from that ingest alone.
    base, late = pubmed_like(300, seed=1), [[0, 1], [2, 3]]

    def answers(mssg):
        params = {"return_labels": True}, {"return_ranks": True}
        if entry == "query":
            return [mssg.query(a, **p).result for a, p in zip(("components", "pagerank"), params)]
        drain = mssg.query_many([], analytics=list(zip(("components", "pagerank"), params)))
        return [r.result for r in drain.queries]

    with _mssg(backend=backend, num_backends=2) as fresh:
        fresh.ingest(base)
        fresh.ingest(late)
        want = answers(fresh)
    with _mssg(backend=backend, num_backends=2, storage_dir=str(tmp_path)) as first:
        first.ingest(base)
    with _mssg(backend=backend, num_backends=2, storage_dir=str(tmp_path)) as reopened:
        reopened.ingest(late)
        assert answers(reopened) == want


# --- The canonical combine against the lexsort it replaced. ----------------


def _lexsort_combine(posts, combiner, n):
    """Reference: the two-key ``np.lexsort`` combine (stable by construction)."""
    ufunc, identity = _COMBINERS[combiner]
    out = np.full(n, identity, dtype=np.float64)
    has = np.zeros(n, dtype=bool)
    live = [p for p in posts if len(p[0])]
    if not live:
        return out, has, 0
    dsts = np.concatenate([p[0] for p in live])
    srcs = np.concatenate([p[1] for p in live])
    vals = np.concatenate([p[2] for p in live]).astype(np.float64)
    order = np.lexsort((srcs, dsts))
    dsts, vals = dsts[order], vals[order]
    ufunc.at(out, dsts, vals)
    has[dsts] = True
    return out, has, len(dsts)


# Signed zeros and infinities make the reduction order visible in the bytes.
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.1, 1e16])


@settings(max_examples=300, deadline=None)
@given(
    # m at the edges of the position field's width as well as small
    m=st.one_of(
        st.integers(0, 40), st.sampled_from([2**k + d for k in range(12) for d in (0, 1)])
    ),
    n=st.integers(1, 40),
    src_span=st.integers(0, 40),
    combiner=st.sampled_from(sorted(_COMBINERS)),
    cuts=st.lists(st.integers(0, 2**11 + 1), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_key_combine_matches_lexsort(m, n, src_span, combiner, cuts, seed):
    # Few distinct (dst, src) keys spread over several posts (ranks) tie
    # across ranks with differing values; src_span 0 draws only src = -1.
    rng = np.random.default_rng(seed)
    dsts = rng.integers(0, n, m).astype(np.int32)
    srcs = rng.integers(-1, src_span, m).astype(np.int32)
    vals = np.where(
        rng.random(m) < 0.5, _SPECIAL[rng.integers(0, len(_SPECIAL), m)], rng.normal(size=m)
    )
    bounds = [0, *sorted(c % (m + 1) for c in cuts), m]
    posts = [(dsts[a:b], srcs[a:b], vals[a:b]) for a, b in zip(bounds, bounds[1:])]
    with np.errstate(invalid="ignore"):  # inf + -inf under "add" is a NaN, on both sides
        got, want = _combine_posts(posts, combiner, n), _lexsort_combine(posts, combiner, n)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1]) and got[2] == want[2] == m


def test_vpconfig_refuses_an_id_space_past_int32():
    with pytest.raises(ConfigError, match="int32"):
        VPConfig(num_vertices=2**31)
