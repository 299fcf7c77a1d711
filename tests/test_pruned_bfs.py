"""Tests for the unweighted pruned-BFS PLL engine."""

import math

import pytest

from repro.baselines.bfs import bfs_distances
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.core.pruned_bfs import PrunedBFS
from repro.core.query import query_distance
from repro.core.serial import build_serial
from repro.errors import GraphError
from repro.graph.order import by_degree
from repro.obs import buildmon


class TestCorrectness:
    def test_queries_match_bfs(self, random_graph):
        store, _ = build_serial(random_graph, engine="bfs")
        for s in (0, 13):
            truth = bfs_distances(random_graph, s)
            for t in range(random_graph.num_vertices):
                assert query_distance(store, s, t) == truth[t]

    def test_ignores_weights(self, path_graph):
        # path_graph has weights 1, 2, 3 but BFS counts hops.
        store, _ = build_serial(path_graph, engine="bfs")
        assert query_distance(store, 0, 3) == 3.0

    def test_disconnected(self, two_components):
        store, _ = build_serial(two_components, engine="bfs")
        assert query_distance(store, 0, 2) == math.inf

    def test_identical_labels_to_dijkstra_on_unit_weights(
        self, medium_graph
    ):
        """On unit weights the weighted and unweighted engines agree
        label-for-label, not just answer-for-answer."""
        unit = medium_graph.unit_weighted()
        bfs_store, _ = build_serial(unit, engine="bfs")
        dij_store, _ = build_serial(unit)
        assert bfs_store == dij_store

    def test_stats_and_cdf(self, random_graph):
        store, stats = build_serial(
            random_graph, engine="bfs", collect_per_root=True
        )
        assert len(stats.per_root) == random_graph.num_vertices
        assert (
            sum(s.labels_added for s in stats.per_root)
            == store.total_entries
        )

    def test_monitored_build_reports_every_root(self, random_graph):
        """A BFS build with a monitor installed goes through the serial
        builder's monitor path and labels exactly like an unmonitored one."""
        plain = PLLIndex.build(random_graph, engine="bfs")
        monitor = buildmon.BuildMonitor(
            total_roots=random_graph.num_vertices
        )
        with buildmon.monitored(monitor):
            watched = PLLIndex.build(random_graph, engine="bfs")
        assert monitor.roots_done == random_graph.num_vertices
        assert monitor.labels_total == watched.store.total_entries
        assert len(monitor.per_root) == random_graph.num_vertices
        assert watched.store == plain.store


class TestEngineInterface:
    def test_run_commit_cycle(self, random_graph):
        engine = PrunedBFS(random_graph, by_degree(random_graph))
        store = LabelStore(random_graph.num_vertices)
        root = int(engine.order[0])
        delta = engine.run(root, store)
        truth = bfs_distances(random_graph, root)
        assert dict(delta) == {
            v: d for v, d in enumerate(truth) if d != math.inf
        }
        engine.commit(root, delta, store)
        assert store.total_entries == len(delta)

    def test_pruning_happens(self, medium_graph):
        engine = PrunedBFS(medium_graph, by_degree(medium_graph))
        store = LabelStore(medium_graph.num_vertices)
        counts = []
        for root in engine.order:
            delta = engine.run(int(root), store)
            engine.commit(int(root), delta, store)
            counts.append(len(delta))
        assert counts[-1] < counts[0]

    def test_invalid_root(self, path_graph):
        engine = PrunedBFS(path_graph, by_degree(path_graph))
        with pytest.raises(GraphError):
            engine.run(99, LabelStore(4))

    def test_rank_of(self, path_graph):
        engine = PrunedBFS(path_graph, [3, 1, 0, 2])
        assert engine.rank_of(3) == 0
        with pytest.raises(GraphError):
            engine.rank_of(-1)

    def test_faster_label_structure_smaller_than_weighted(self, random_graph):
        """Hop metrics are 'tighter': BFS labels never exceed weighted ones
        by much on the same (weighted) graph -- sanity of both engines."""
        bfs_store, _ = build_serial(random_graph, engine="bfs")
        assert bfs_store.avg_label_size > 0
