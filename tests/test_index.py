"""Tests for the PLLIndex facade."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.baselines.dijkstra import dijkstra_sssp
from repro.core.index import PLLIndex
from repro.errors import GraphError, IndexError_
from repro.graph.order import by_degree


class TestBuildQuery:
    def test_distance_matches_dijkstra(self, random_graph):
        index = PLLIndex.build(random_graph)
        for s in (0, 11, 23):
            truth = dijkstra_sssp(random_graph, s)
            for t in range(random_graph.num_vertices):
                assert index.distance(s, t) == truth[t]

    def test_query_hub_is_vertex_id_on_path(self, triangle):
        index = PLLIndex.build(triangle)
        res = index.query(0, 2)
        assert res.distance == 2.0
        # The meeting hub must realise the distance exactly.
        h = res.hub
        truth0 = dijkstra_sssp(triangle, 0)
        truth2 = dijkstra_sssp(triangle, 2)
        assert truth0[h] + truth2[h] == 2.0

    def test_unreachable_pair(self, two_components):
        index = PLLIndex.build(two_components)
        res = index.query(0, 3)
        assert res.distance == math.inf
        assert res.hub is None

    def test_distances_from_batch(self, random_graph):
        index = PLLIndex.build(random_graph)
        truth = dijkstra_sssp(random_graph, 5)
        got = index.distances_from(5, range(random_graph.num_vertices))
        assert got == truth

    def test_out_of_range_query(self, path_graph):
        index = PLLIndex.build(path_graph)
        with pytest.raises(GraphError):
            index.distance(0, 77)
        with pytest.raises(GraphError):
            index.distance(-1, 0)

    def test_avg_label_size(self, random_graph):
        index = PLLIndex.build(random_graph)
        assert index.avg_label_size() == pytest.approx(
            index.store.avg_label_size
        )
        assert index.num_vertices == random_graph.num_vertices

    def test_custom_order(self, random_graph):
        order = list(reversed(by_degree(random_graph).tolist()))
        index = PLLIndex.build(random_graph, order=order)
        truth = dijkstra_sssp(random_graph, 2)
        assert index.distance(2, 17) == truth[17]


class TestPersistence:
    def test_save_load_roundtrip(self, random_graph, tmp_path):
        index = PLLIndex.build(random_graph)
        path = tmp_path / "idx.npz"
        index.save(path)
        loaded = PLLIndex.load(path)
        for s in (0, 3):
            for t in range(random_graph.num_vertices):
                assert loaded.distance(s, t) == index.distance(s, t)

    def test_load_without_graph_queries_fine(self, path_graph, tmp_path):
        index = PLLIndex.build(path_graph)
        path = tmp_path / "idx.npz"
        index.save(path)
        loaded = PLLIndex.load(path)
        assert loaded.graph is None
        assert loaded.distance(0, 3) == 6.0

    def test_load_with_graph_enables_verify(self, path_graph, tmp_path):
        index = PLLIndex.build(path_graph)
        path = tmp_path / "idx.npz"
        index.save(path)
        loaded = PLLIndex.load(path, graph=path_graph)
        loaded.verify_against_dijkstra([0, 1])

    def test_hub_ids_survive_roundtrip(self, triangle, tmp_path):
        index = PLLIndex.build(triangle)
        path = tmp_path / "idx.npz"
        index.save(path)
        loaded = PLLIndex.load(path)
        assert loaded.query(0, 2).hub == index.query(0, 2).hub

    def test_roundtrip_bit_exact_on_sampled_pairs(
        self, random_graph, tmp_path
    ):
        index = PLLIndex.build(random_graph)
        path = tmp_path / "idx.npz"
        index.save(path)
        loaded = PLLIndex.load(path)
        rng = np.random.default_rng(7)
        n = random_graph.num_vertices
        pairs = rng.integers(0, n, size=(100, 2))
        before = [index.distance(int(s), int(t)) for s, t in pairs]
        after = [loaded.distance(int(s), int(t)) for s, t in pairs]
        # Bit-exact, not approx: load adopts the saved arrays verbatim.
        assert before == after

    def test_duplicate_hub_store_roundtrip(self, path_graph, tmp_path):
        # Delayed-sync (c > 1) builds produce duplicated hubs; finalize
        # dedups with min, and the saved form must query identically.
        index = PLLIndex.build(path_graph)
        before = {(s, t): index.distance(s, t)
                  for s in range(4) for t in range(4)}
        hub = int(index.store.finalized_hubs(3)[0])
        dist = float(index.store.finalized_dists(3)[0])
        index.store.add(3, hub, dist + 7.0)  # stale, worse duplicate
        index.store.add(3, hub, dist)        # exact duplicate
        index.store.finalize()
        path = tmp_path / "idx.npz"
        index.save(path)
        loaded = PLLIndex.load(path)
        for (s, t), want in before.items():
            assert loaded.distance(s, t) == want

    def test_load_never_refinalizes(self, random_graph, tmp_path, monkeypatch):
        index = PLLIndex.build(random_graph)
        path = tmp_path / "idx.npz"
        index.save(path)

        import repro.core.labels as labels_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("load must not re-sort/dedup labels")

        monkeypatch.setattr(labels_mod, "_sort_dedup_flat", boom)
        loaded = PLLIndex.load(path)
        assert loaded.distance(0, 1) == index.distance(0, 1)

    def test_dir_bundle_roundtrip_with_mmap(self, random_graph, tmp_path):
        index = PLLIndex.build(random_graph)
        bundle = tmp_path / "idx.bundle"
        index.save(bundle, format="dir")
        loaded = PLLIndex.load(bundle, mmap=True)
        _, hubs, _ = loaded.store.finalized_arrays()
        assert isinstance(hubs, np.memmap)
        for s, t in ((0, 1), (3, 17), (5, 5)):
            assert loaded.distance(s, t) == index.distance(s, t)

    def test_mmap_of_npz_rejected(self, path_graph, tmp_path):
        index = PLLIndex.build(path_graph)
        path = tmp_path / "idx.npz"
        index.save(path)
        with pytest.raises(GraphError, match="dir"):
            PLLIndex.load(path, mmap=True)

    def test_unknown_save_format_rejected(self, path_graph, tmp_path):
        index = PLLIndex.build(path_graph)
        with pytest.raises(GraphError):
            index.save(tmp_path / "idx", format="pickle")


class TestCorruptFiles:
    """Corrupt index files must raise GraphError, never answer inf."""

    def _saved_arrays(self, graph, tmp_path):
        index = PLLIndex.build(graph)
        path = tmp_path / "idx.npz"
        index.save(path)
        with np.load(path) as data:
            return path, {k: data[k] for k in data.files}

    def _rewrite(self, path, arrays, **overrides):
        arrays = dict(arrays, **overrides)
        np.savez_compressed(path, **arrays)
        return path

    def test_decreasing_indptr_rejected(self, random_graph, tmp_path):
        path, arrays = self._saved_arrays(random_graph, tmp_path)
        indptr = arrays["label_indptr"].copy()
        indptr[5], indptr[6] = indptr[6], indptr[5] - 1
        self._rewrite(path, arrays, label_indptr=indptr)
        with pytest.raises(GraphError):
            PLLIndex.load(path)

    def test_unsorted_hubs_rejected(self, random_graph, tmp_path):
        path, arrays = self._saved_arrays(random_graph, tmp_path)
        hubs = arrays["label_hubs"].copy()
        indptr = arrays["label_indptr"]
        # Reverse the first vertex with at least 2 entries.
        v = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        hubs[lo:hi] = hubs[lo:hi][::-1]
        self._rewrite(path, arrays, label_hubs=hubs)
        with pytest.raises(GraphError, match=f"vertex {v}"):
            PLLIndex.load(path)

    def test_out_of_range_hub_rejected(self, random_graph, tmp_path):
        path, arrays = self._saved_arrays(random_graph, tmp_path)
        hubs = arrays["label_hubs"].copy()
        hubs[0] = random_graph.num_vertices + 3
        self._rewrite(path, arrays, label_hubs=hubs)
        with pytest.raises(GraphError):
            PLLIndex.load(path)

    def test_short_order_rejected(self, random_graph, tmp_path):
        path, arrays = self._saved_arrays(random_graph, tmp_path)
        self._rewrite(path, arrays, order=arrays["order"][:-2])
        with pytest.raises(GraphError, match="permutation"):
            PLLIndex.load(path)

    def test_non_permutation_order_rejected(self, random_graph, tmp_path):
        path, arrays = self._saved_arrays(random_graph, tmp_path)
        order = arrays["order"].copy()
        order[0] = order[1]  # duplicate rank
        self._rewrite(path, arrays, order=order)
        with pytest.raises(GraphError, match="permutation"):
            PLLIndex.load(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(GraphError):
            PLLIndex.load(path)

    def test_missing_member_rejected(self, path_graph, tmp_path):
        path, arrays = self._saved_arrays(path_graph, tmp_path)
        arrays.pop("label_dists")
        np.savez_compressed(path, **arrays)
        with pytest.raises(GraphError):
            PLLIndex.load(path)


class TestBatchQuery:
    def test_batch_matches_scalar_on_random_graph(self, random_graph):
        index = PLLIndex.build(random_graph)
        rng = np.random.default_rng(11)
        n = random_graph.num_vertices
        pairs = rng.integers(0, n, size=(1000, 2))
        batch = index.distance_batch(pairs)
        scalar = np.array(
            [index.distance(int(s), int(t)) for s, t in pairs]
        )
        assert np.array_equal(batch, scalar)

    def test_small_batch_fallback_matches(self, random_graph):
        index = PLLIndex.build(random_graph)
        pairs = [(0, 1), (2, 3), (4, 4), (5, 39)]
        batch = index.distance_batch(pairs)
        scalar = [index.distance(s, t) for s, t in pairs]
        assert batch.tolist() == scalar

    def test_unreachable_pairs_are_inf(self, two_components):
        index = PLLIndex.build(two_components)
        pairs = [(0, 3), (0, 1), (2, 3), (3, 0)]
        out = index.distance_batch(pairs)
        assert out.tolist() == [index.distance(s, t) for s, t in pairs]
        assert out[0] == math.inf and out[3] == math.inf

    def test_empty_batch(self, path_graph):
        index = PLLIndex.build(path_graph)
        out = index.distance_batch(np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0,)

    def test_self_pairs_zero(self, path_graph):
        index = PLLIndex.build(path_graph)
        out = index.distance_batch([(v, v) for v in range(4)])
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_bad_shape_rejected(self, path_graph):
        index = PLLIndex.build(path_graph)
        with pytest.raises(GraphError):
            index.distance_batch([(0, 1, 2)])

    def test_out_of_range_rejected(self, path_graph):
        index = PLLIndex.build(path_graph)
        with pytest.raises(GraphError):
            index.distance_batch([(0, 99)])
        with pytest.raises(GraphError):
            index.distance_batch([(-1, 2)])


class TestVerify:
    def test_verify_passes(self, random_graph):
        index = PLLIndex.build(random_graph)
        index.verify_against_dijkstra(range(0, 40, 10))

    def test_verify_without_graph_raises(self, path_graph, tmp_path):
        index = PLLIndex.build(path_graph)
        path = tmp_path / "idx.npz"
        index.save(path)
        loaded = PLLIndex.load(path)
        with pytest.raises(GraphError):
            loaded.verify_against_dijkstra([0])

    def test_verify_detects_corruption(self, path_graph):
        index = PLLIndex.build(path_graph)
        # Corrupt one finalized distance through the zero-copy slice.
        index.store.finalize()
        index.store.finalized_dists(3)[:] = 999.0
        with pytest.raises(IndexError_, match="Dijkstra says"):
            index.verify_against_dijkstra([0])

    def test_verify_detects_corruption_under_optimize(self):
        """The check is not an ``assert``: ``python -O`` keeps it."""
        script = textwrap.dedent(
            """
            from repro.core.index import PLLIndex
            from repro.graph.builder import GraphBuilder

            b = GraphBuilder(num_vertices=4)
            b.add_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
            index = PLLIndex.build(b.build())
            index.store.finalize()
            index.store.finalized_dists(3)[:] = 999.0
            index.verify_against_dijkstra([0])
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "IndexError_" in proc.stderr
