"""Tests for the extension analyses: connected components and typed BFS."""

import networkx as nx
import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.bfs import bfs_distance
from repro.graphgen import (
    CSRGraph,
    dedupe_edges,
    preferential_attachment,
    pubmed_like,
    pubmed_semantic_graph,
)
from repro.simcluster.faults import DiskFault, FaultPlan
from repro.util.errors import ConfigError

ALL_BACKENDS = ["Array", "HashMap", "MySQL", "BerkeleyDB", "StreamDB", "grDB"]


def two_component_edges():
    """Two disjoint scale-free blobs plus an isolated pair."""
    a = dedupe_edges(preferential_attachment(60, 2, seed=1))
    b = dedupe_edges(preferential_attachment(40, 2, seed=2)) + 100
    c = np.array([[200, 201]])
    return np.vstack([a, b, c])


class TestComponents:
    @pytest.mark.parametrize("decluster", ["vertex-rr", "edge-rr"])
    def test_counts_components(self, decluster):
        edges = two_component_edges()
        with MSSG(
            MSSGConfig(num_backends=3, backend="HashMap", declustering=decluster)
        ) as mssg:
            mssg.ingest(edges)
            report = mssg.query("components")
            assert report.result["num_components"] == 3
            assert sum(report.result["sizes"]) == len(
                np.unique(edges)
            )
            assert report.result["sizes"][-1] == 2  # the isolated pair

    def test_labels_are_component_minima(self):
        edges = two_component_edges()
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            labels = mssg.query("components", return_labels=True).result["labels"]
            # Every member of the second blob carries its minimum id (100).
            assert labels[200] == 200 and labels[201] == 200
            blob_b = {v: lab for v, lab in labels.items() if 100 <= v < 200}
            assert blob_b and all(lab == 100 for lab in blob_b.values())

    @pytest.mark.parametrize("analysis", ["components"])
    def test_labels_gated_behind_parameter(self, analysis):
        # The per-vertex label table is an unbounded payload at scale:
        # absent by default, present on request, counts always present.
        edges = two_component_edges()
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            bare = mssg.query(analysis).result
            assert "labels" not in bare
            assert bare["num_components"] == 3
            assert bare["sizes"][-1] == 2
            full = mssg.query(analysis, return_labels=True).result
            assert full["labels"][201] == 200

    def test_single_component_graph(self):
        edges = dedupe_edges(preferential_attachment(80, 2, seed=5))
        with MSSG(MSSGConfig(num_backends=4, backend="grDB")) as mssg:
            mssg.ingest(edges)
            report = mssg.query("components")
            assert report.result["num_components"] == 1
            assert report.levels >= 1

    def test_matches_networkx(self):
        rng = np.random.default_rng(7)
        edges = dedupe_edges(
            np.column_stack([rng.integers(0, 120, 150), rng.integers(0, 120, 150)])
        )
        g = nx.Graph()
        g.add_edges_from(map(tuple, edges.tolist()))
        minima = {v: min(c) for c in nx.connected_components(g) for v in c}
        with MSSG(MSSGConfig(num_backends=3, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            result = mssg.query("components", return_labels=True).result
            assert result["num_components"] == nx.number_connected_components(g)
            assert result["labels"] == minima


class TestRegisterGuard:
    def test_duplicate_registration_rejected(self):
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            with pytest.raises(ConfigError, match="already registered"):
                mssg.queries.register("bfs", lambda **kw: None)
            # Nothing was clobbered: the built-in still answers.
            mssg.ingest(np.array([[0, 1], [1, 2]]))
            assert mssg.query_bfs(0, 2).result == 2

    def test_explicit_override_allowed(self):
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            sentinel = object()
            mssg.queries.register("degree", lambda **kw: sentinel, override=True)
            assert mssg.query("degree") is sentinel


class TestTypedBFS:
    def build(self):
        """Star of Articles around a Journal hub, plus a direct cite path.

        Path A: 0 -cites- 1 -cites- 2            (all Articles)
        Path B: 0 -published_in- 9 (Journal) -published_in- 2
        Types:  0,1,2 = Article(code 0), 9 = Journal(code 1)
        """
        edges = np.array([[0, 1], [1, 2], [0, 9], [9, 2]])
        mssg = MSSG(MSSGConfig(num_backends=2, backend="HashMap"))
        mssg.ingest(edges)
        types = {0: 0, 1: 0, 2: 0, 9: 1}
        assert mssg.query("load-vertex-types", type_codes=types).result == 4
        return mssg

    def test_unrestricted_uses_hub_shortcut(self):
        mssg = self.build()
        try:
            # Plain BFS may go through the Journal: distance 2 either way.
            assert mssg.query_bfs(0, 2).result == 2
            # Typed BFS allowing both codes agrees.
            assert mssg.query("typed-bfs", source=0, dest=2, allowed_codes=[0, 1]).result == 2
        finally:
            mssg.close()

    def test_restricting_types_changes_paths(self):
        mssg = self.build()
        try:
            # Only Article-typed vertices may be traversed: the citation
            # path 0-1-2 still works (distance 2)...
            assert mssg.query("typed-bfs", source=0, dest=2, allowed_codes=[0]).result == 2
            # ...but Articles are unreachable through a Journals-only lens.
            assert mssg.query("typed-bfs", source=0, dest=2, allowed_codes=[1]).result is None
        finally:
            mssg.close()

    def test_longer_detour_when_direct_type_excluded(self):
        # 0 -a- 5(typeX) -a- 9 ; 0 -b- 1 -b- 2 -b- 9 with allowed only type b.
        edges = np.array([[0, 5], [5, 9], [0, 1], [1, 2], [2, 9]])
        types = {0: 2, 5: 7, 9: 2, 1: 2, 2: 2}
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            mssg.query("load-vertex-types", type_codes=types)
            assert mssg.query("typed-bfs", source=0, dest=9, allowed_codes=[2, 7]).result == 2
            assert mssg.query("typed-bfs", source=0, dest=9, allowed_codes=[2]).result == 3

    def test_source_equals_dest_is_zero_hops(self):
        # Regression: the trivial relationship must answer 0 before any
        # expansion — even with no metadata loaded and no traversable type.
        edges = np.array([[0, 1], [1, 2], [0, 9], [9, 2]])
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            assert mssg.query("typed-bfs", source=5, dest=5, allowed_codes=[]).result == 0
            mssg.query("load-vertex-types", type_codes={0: 0, 1: 0, 2: 0, 9: 1})
            assert mssg.query("typed-bfs", source=0, dest=0, allowed_codes=[1]).result == 0
            before = sum(s["adjacency_requests"] for s in mssg.backend_stats())
            assert mssg.query("typed-bfs", source=9, dest=9, allowed_codes=[0]).result == 0
            after = sum(s["adjacency_requests"] for s in mssg.backend_stats())
            assert after == before  # decided with zero expansions

    def test_on_generated_semantic_graph(self):
        g = pubmed_semantic_graph(num_articles=60, num_authors=25, seed=4)
        code_of = {"Article": 0, "Author": 1, "Journal": 2, "MeSHTerm": 3, "Date": 4}
        types = {gid: code_of[t] for gid, t in g.vertices()}
        with MSSG(MSSGConfig(num_backends=3, backend="grDB")) as mssg:
            mssg.ingest(g.edge_list())
            mssg.query("load-vertex-types", type_codes=types)
            unrestricted = mssg.query(
                "typed-bfs", source=0, dest=30, allowed_codes=list(code_of.values())
            ).result
            assert unrestricted == mssg.query_bfs(0, 30).result
            articles_only = mssg.query(
                "typed-bfs", source=0, dest=30, allowed_codes=[0]
            ).result
            # Constraining the lens can only lengthen (or sever) paths.
            assert articles_only is None or articles_only >= unrestricted


def _typed_distance(edges, types, source, dest, allowed):
    """Sequential reference: BFS over the subgraph of allowed-type vertices
    (the source's own type is not asked); ``None`` when unreachable."""
    n = int(edges.max()) + 1
    ok = np.array([types.get(v) in allowed for v in range(n)])
    if source != dest and not ok[dest]:
        return None
    ok[source] = True
    kept = edges[ok[edges[:, 0]] & ok[edges[:, 1]]]
    level = bfs_distance(CSRGraph.from_edges(kept, num_vertices=n), source, dest)
    return None if level < 0 else level


def _semantic_case():
    g = pubmed_semantic_graph(num_articles=60, num_authors=25, seed=4)
    code_of = {"Article": 0, "Author": 1, "Journal": 2, "MeSHTerm": 3, "Date": 4}
    types = {gid: code_of[t] for gid, t in g.vertices()}
    # Unrestricted distance 3 / 3 / 2; the lens makes each one hop longer.
    queries = [(60, 52, [0]), (57, 124, [0, 3]), (32, 28, [0, 1])]
    queries += [(s, d, [0, 1, 2, 3, 4]) for s, d, _ in queries] + [(0, 30, [0]), (3, 70, [0, 3])]
    return np.asarray(g.edge_list()), types, queries


class TestTypedBFSOnTheDriver:
    """``typed-bfs`` is Algorithm 1 under a lens, so it pushes, pulls and
    costs exactly what ``bfs`` does."""

    CASES = {
        "hub": (
            np.array([[0, 1], [1, 2], [0, 9], [9, 2]]),
            {0: 0, 1: 0, 2: 0, 9: 1},
            [(0, 2, [0, 1]), (0, 2, [0]), (0, 2, [1]), (9, 1, [0])],
        ),
        "detour": (
            np.array([[0, 5], [5, 9], [0, 1], [1, 2], [2, 9]]),
            {0: 2, 5: 7, 9: 2, 1: 2, 2: 2},
            [(0, 9, [2, 7]), (0, 9, [2]), (0, 9, [7]), (5, 2, [2])],
        ),
        "semantic": _semantic_case(),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("backend", ["HashMap", "grDB"])
    def test_every_direction_gives_the_reference_distance(self, case, backend):
        edges, types, queries = self.CASES[case]
        with MSSG(MSSGConfig(num_backends=3, backend=backend)) as mssg:
            mssg.ingest(edges)
            mssg.query("load-vertex-types", type_codes=types)
            for source, dest, allowed in queries:
                expected = _typed_distance(edges, types, source, dest, allowed)
                for schedule in (("bottom-up",), ("top-down",), None):
                    r = mssg.query(
                        "typed-bfs",
                        source=source,
                        dest=dest,
                        allowed_codes=allowed,
                        direction_schedule=schedule,
                    )
                    assert r.result == expected, (source, dest, allowed, schedule)
                    assert not r.partial
                    if schedule and r.levels:
                        assert set(r.directions) == set(schedule)

    @pytest.mark.parametrize("backend", ["grDB", "StreamDB", "BerkeleyDB"])
    @pytest.mark.parametrize(
        "params",
        [{}, {"direction_schedule": ("bottom-up",)}, {"visited": "external"}],
        ids=["default", "pull", "external"],
    )
    def test_all_admitting_lens_costs_nothing(self, backend, params):
        # The type check reads the resident table: same answer, same work and
        # the same virtual clock, to the bit, as bfs on an identical store.
        reports = []
        for analysis, extra in (("bfs", {}), ("typed-bfs", {"allowed_codes": [0]})):
            with _extension_mssg(backend, replication=1) as mssg:
                reports.append(mssg.query(analysis, source=0, dest=100, **extra, **params))
        plain, typed = reports
        assert typed.analysis == "typed-bfs" and plain.result is not None
        assert (typed.result, typed.levels, typed.edges_scanned, repr(typed.seconds)) == (
            plain.result, plain.levels, plain.edges_scanned, repr(plain.seconds)
        )
        assert typed.directions == plain.directions


# Big enough that queries are forced onto the simulated devices (a graph
# that fits in the 4-block cache never touches a disk and faults can't fire).
_FO_EDGES = pubmed_like(600, seed=11)


def _extension_mssg(backend, replication, kill=False):
    """Three back-ends + one front-end; back-end q lives on node 1 + q."""
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
    mssg.query(
        "load-vertex-types", type_codes={int(v): 0 for v in np.unique(_FO_EDGES)}
    )
    if kill:
        mssg.set_fault_plan(FaultPlan([DiskFault(node=1, at_time=0.0)]))
    return mssg


class TestExtensionCoverage:
    """Extension analyses across every backend and replication factor."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("replication", [1, 2])
    def test_components_and_typed_bfs(self, backend, replication):
        with _extension_mssg(backend, replication) as mssg:
            comp = mssg.query("components")
            assert comp.result["num_components"] >= 1
            assert sum(comp.result["sizes"]) == len(np.unique(_FO_EDGES))
            typed = mssg.query("typed-bfs", source=0, dest=100, allowed_codes=[0])
            plain = mssg.query_bfs(0, 100)
            assert typed.result == plain.result
            assert not typed.partial


class TestExtensionFailover:
    """Mid-query device deaths through the extension analyses."""

    @pytest.mark.parametrize("backend", ["grDB", "BerkeleyDB", "StreamDB"])
    def test_replicated_kill_preserves_answers(self, backend):
        with _extension_mssg(backend, replication=2) as healthy:
            comp_h = healthy.query("components").result
            typed_h = healthy.query(
                "typed-bfs", source=0, dest=100, allowed_codes=[0]
            ).result
        with _extension_mssg(backend, replication=2, kill=True) as faulted:
            comp_f = faulted.query("components")
            typed_f = faulted.query("typed-bfs", source=0, dest=100, allowed_codes=[0])
        assert comp_f.result == comp_h
        assert not comp_f.partial
        assert comp_f.device_failures >= 1
        # Broadcast expansion: the survivor's union covers the dead holder.
        assert typed_f.result == typed_h
        assert not typed_f.partial

    def test_unreplicated_kill_degrades_to_partial(self):
        with _extension_mssg("grDB", replication=1, kill=True) as mssg:
            comp = mssg.query("components")
            assert comp.partial
            assert comp.device_failures >= 1
            typed = mssg.query("typed-bfs", source=0, dest=100, allowed_codes=[0])
            assert typed.partial


class TestLocalVertices:
    @pytest.mark.parametrize(
        "backend", ["Array", "HashMap", "MySQL", "BerkeleyDB", "StreamDB", "grDB"]
    )
    def test_enumeration_matches_stored(self, backend):
        from .helpers import make_store
        from repro.simcluster import NodeSpec, SimNode

        node = SimNode(0, NodeSpec())
        db = make_store(backend, node)
        db.store_edges([(3, 1), (7, 2), (3, 9), (100, 4)])
        db.finalize_ingest()
        assert db.local_vertices().tolist() == [3, 7, 100]
