"""Tests for Algorithm 1 (the pruned Dijkstra engine)."""

import pytest

from repro.core.labels import LabelStore
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.baselines.dijkstra import dijkstra_sssp
from repro.errors import GraphError, OrderingError
from repro.graph.order import by_degree
from repro.types import SearchStats

from .conftest import build_graph


def make_engine(graph, order=None):
    return PrunedDijkstra(graph, order if order is not None else by_degree(graph))


class TestFirstRoot:
    def test_unpruned_full_dijkstra(self, random_graph):
        """With no labels yet, the search is a plain Dijkstra."""
        engine = make_engine(random_graph)
        store = LabelStore(random_graph.num_vertices)
        root = int(engine.order[0])
        delta = engine.run(root, store)
        truth = dijkstra_sssp(random_graph, root)
        assert dict(delta) == {
            v: d for v, d in enumerate(truth) if d != float("inf")
        }

    def test_root_first_in_delta(self, random_graph):
        engine = make_engine(random_graph)
        store = LabelStore(random_graph.num_vertices)
        delta = engine.run(3, store)
        assert delta[0] == (3, 0.0)


class TestPruning:
    def test_second_root_pruned_on_path(self, path_graph):
        """After indexing the centre of a path, endpoints prune hard."""
        order = [1, 0, 2, 3]
        engine = make_engine(path_graph, order)
        store = LabelStore(4)
        d1 = engine.run(1, store)
        engine.commit(1, d1, store)
        stats = SearchStats()
        d0 = engine.run(0, store, stats)
        # Vertex 0's search: everything beyond is covered via hub 1.
        assert [v for v, _ in d0] == [0]
        assert stats.pruned > 0

    def test_prunes_with_equal_distance(self):
        """The paper prunes on <=: an equal 2-hop path suppresses labels."""
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
        order = [1, 0, 2]
        engine = make_engine(g, order)
        store = LabelStore(3)
        engine.commit(1, engine.run(1, store), store)
        d0 = engine.run(0, store)
        # d(0,2) = 2 both directly and via hub 1 -> pruned.
        assert (2, 2.0) not in d0

    def test_deltas_are_exact_distances(self, random_graph):
        """Every label entry is the true distance (even when pruned late)."""
        engine = make_engine(random_graph)
        store = LabelStore(random_graph.num_vertices)
        for root in engine.order:
            delta = engine.run(int(root), store)
            truth = dijkstra_sssp(random_graph, int(root))
            for v, d in delta:
                assert d == truth[v]
            engine.commit(int(root), delta, store)

    def test_later_roots_add_fewer_labels(self, medium_graph):
        engine = make_engine(medium_graph)
        store = LabelStore(medium_graph.num_vertices)
        counts = []
        for root in engine.order:
            delta = engine.run(int(root), store)
            engine.commit(int(root), delta, store)
            counts.append(len(delta))
        # The first root labels everything reachable; the last nearly nothing.
        assert counts[0] > counts[-1]
        assert counts[-1] <= 3


class TestStats:
    def test_counters_filled(self, random_graph):
        engine = make_engine(random_graph)
        store = LabelStore(random_graph.num_vertices)
        stats = SearchStats()
        delta = engine.run(0, store, stats)
        assert stats.root == 0
        assert stats.labels_added == len(delta)
        assert stats.settled >= len(delta)
        assert stats.heap_pops >= stats.settled
        assert stats.relaxations > 0

    def test_pruned_counted(self, path_graph):
        engine = make_engine(path_graph, [1, 0, 2, 3])
        store = LabelStore(4)
        engine.commit(1, engine.run(1, store), store)
        stats = SearchStats()
        engine.run(0, store, stats)
        assert stats.pruned >= 1
        assert stats.settled == stats.pruned + stats.labels_added


class TestValidation:
    def test_invalid_root(self, path_graph):
        engine = make_engine(path_graph)
        with pytest.raises(GraphError):
            engine.run(99, LabelStore(4))

    def test_invalid_ordering(self, path_graph):
        with pytest.raises(OrderingError):
            PrunedDijkstra(path_graph, [0, 1])

    def test_rank_of(self, path_graph):
        engine = make_engine(path_graph, [2, 0, 3, 1])
        assert engine.rank_of(2) == 0
        assert engine.rank_of(1) == 3
        with pytest.raises(OrderingError):
            engine.rank_of(99)

    def test_scratch_arrays_reset(self, random_graph):
        """Back-to-back runs must not leak state between roots."""
        engine = make_engine(random_graph)
        store = LabelStore(random_graph.num_vertices)
        d_a1 = engine.run(0, store)
        d_b = engine.run(1, store)
        d_a2 = engine.run(0, store)
        assert d_a1 == d_a2
        assert d_b == engine.run(1, store)
