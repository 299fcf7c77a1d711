"""Tests for incremental edge insertion (DynamicPLL)."""

import random

import pytest

from repro.baselines.dijkstra import dijkstra_sssp
from repro.check.invariants import verify_index
from repro.core.dynamic import DynamicPLL
from repro.core.index import PLLIndex
from repro.errors import GraphError
from repro.generators.random_graphs import gnm_random_graph

from .conftest import build_graph


def assert_exact(dyn, sources=None):
    graph = dyn.current_graph()
    srcs = sources if sources is not None else range(graph.num_vertices)
    for s in srcs:
        truth = dijkstra_sssp(graph, s)
        for t in range(graph.num_vertices):
            assert dyn.distance(s, t) == truth[t], (s, t)


class TestBasics:
    def test_requires_graph(self, random_graph, tmp_path):
        index = PLLIndex.build(random_graph)
        f = tmp_path / "i.npz"
        index.save(f)
        with pytest.raises(GraphError):
            DynamicPLL(PLLIndex.load(f))

    def test_distance_before_any_insert(self, random_graph):
        dyn = DynamicPLL(PLLIndex.build(random_graph))
        truth = dijkstra_sssp(random_graph, 0)
        for t in range(random_graph.num_vertices):
            assert dyn.distance(0, t) == truth[t]

    def test_current_graph_matches_original(self, random_graph):
        dyn = DynamicPLL(PLLIndex.build(random_graph))
        assert dyn.current_graph() == random_graph


class TestInsertion:
    def test_shortcut_on_path(self, path_graph):
        # Path 0-1-2-3 (weights 1,2,3): add shortcut 0-3 of weight 1.
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        added = dyn.insert_edge(0, 3, 1.0)
        assert added > 0
        assert dyn.distance(0, 3) == 1.0
        assert dyn.distance(1, 3) == 2.0  # via 0 now
        assert_exact(dyn)

    def test_connecting_components(self, two_components):
        dyn = DynamicPLL(PLLIndex.build(two_components))
        assert dyn.distance(0, 2) == float("inf")
        dyn.insert_edge(1, 2, 5.0)
        assert dyn.distance(0, 2) == 6.0
        assert_exact(dyn)

    def test_non_improving_edge(self, triangle):
        # 0-2 already costs 2 via vertex 1; a weight-50 edge 1-... add a
        # parallel-ish heavy edge that changes nothing.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
        dyn = DynamicPLL(PLLIndex.build(g))
        dyn.insert_edge(0, 2, 50.0)
        assert dyn.distance(0, 2) == 2.0
        assert_exact(dyn)

    def test_sequence_of_random_insertions(self):
        g = gnm_random_graph(35, 60, seed=9)
        dyn = DynamicPLL(PLLIndex.build(g))
        rng = random.Random(4)
        inserted = 0
        while inserted < 12:
            a = rng.randrange(g.num_vertices)
            b = rng.randrange(g.num_vertices)
            try:
                dyn.insert_edge(a, b, float(rng.randint(1, 10)))
            except GraphError:
                continue  # duplicate or self loop; try again
            inserted += 1
            assert_exact(dyn, sources=[a, b, 0])
        assert len(dyn.inserted_edges) == 12
        assert_exact(dyn)

    def test_insert_returns_added_count(self, random_graph):
        dyn = DynamicPLL(PLLIndex.build(random_graph))
        # Find a pair that is not yet an edge.
        a, b = next(
            (a, b)
            for a in range(random_graph.num_vertices)
            for b in range(a + 1, random_graph.num_vertices)
            if not random_graph.has_edge(a, b)
        )
        before = dyn.store.total_entries
        added = dyn.insert_edge(a, b, 0.5)
        assert dyn.store.total_entries == before + added


class TestValidation:
    def test_self_loop(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError):
            dyn.insert_edge(1, 1, 1.0)

    def test_duplicate_edge(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError, match="exists"):
            dyn.insert_edge(0, 1, 3.0)

    def test_bad_weight(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError):
            dyn.insert_edge(0, 2, 0.0)
        with pytest.raises(GraphError):
            dyn.insert_edge(0, 2, float("nan"))

    def test_out_of_range(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError):
            dyn.insert_edge(0, 99, 1.0)


class TestRebuild:
    def test_rebuild_restores_canonical(self):
        g = gnm_random_graph(30, 50, seed=2)
        dyn = DynamicPLL(PLLIndex.build(g))
        rng = random.Random(1)
        done = 0
        while done < 6:
            a, b = rng.randrange(30), rng.randrange(30)
            try:
                dyn.insert_edge(a, b, float(rng.randint(1, 5)))
                done += 1
            except GraphError:
                pass
        entries_before = dyn.store.total_entries
        dyn.rebuild()
        # Rebuilt index is canonical and no larger than the patched one.
        report = verify_index(
            PLLIndex(dyn.store, dyn.order, graph=dyn.current_graph()),
            strict_minimality=True,
        )
        assert report.ok, report.render()
        assert report.redundant_labels == 0
        assert dyn.store.total_entries <= entries_before
        assert_exact(dyn)
