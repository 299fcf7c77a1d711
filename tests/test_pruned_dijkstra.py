"""Tests for Algorithm 1 (the pruned Dijkstra engine)."""

import hashlib
import importlib.resources
import logging
import os
import shutil
import sysconfig

import numpy as np
import pytest

from repro.core import native, pruned_dijkstra
from repro.core.labels import LabelStore
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.core.serial import build_serial
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


# ----------------------------------------------------------------------
# The compiled kernel
# ----------------------------------------------------------------------
@pytest.fixture
def kernel():
    """Skip unless the compiled kernel builds and loads here."""
    if pruned_dijkstra._load_kernel() is None:
        pytest.skip("no C compiler: the compiled kernel is unavailable")


def reference_engine(monkeypatch, graph, order):
    """An engine that runs the Python loop."""
    with monkeypatch.context() as m:
        m.setattr(pruned_dijkstra, "_load_kernel", lambda: None)
        return PrunedDijkstra(graph, order)


class TestKernelBounds:
    """Malformed labels end in a GraphError naming the entry, never in a
    read outside the scratch arrays; the scratch is reset either way."""

    PLAIN = [(0, 0.0), (1, 1.0), (2, 3.0), (3, 6.0)]

    @pytest.mark.parametrize("hub", [4, -1])
    @pytest.mark.parametrize("vertex", [0, 2])
    def test_hub_rank_out_of_range(self, kernel, path_graph, hub, vertex):
        engine = make_engine(path_graph, [0, 1, 2, 3])
        assert engine._kernel is not None
        store = LabelStore(4)
        store.add(vertex, 1, 1.0)
        store.add(vertex, hub, 1.0)
        with pytest.raises(GraphError, match=f"vertex {vertex}: hub {hub} ") as err:
            engine.run(0, store)
        assert (err.value.vertex, err.value.hub) == (vertex, hub)
        assert engine.run(0, LabelStore(4)) == self.PLAIN

    def test_distance_not_a_number(self, kernel, path_graph):
        """A distance that is not a number never reaches the kernel: the
        store refuses it at append, naming the entry, and stays as it
        was."""
        engine = make_engine(path_graph, [0, 1, 2, 3])
        store = LabelStore(4)
        for dist in ("far", None, float("nan")):
            with pytest.raises(
                GraphError, match="vertex 1, hub 0, .*not a number"
            ) as err:
                store.add(1, 0, dist)
            assert (err.value.vertex, err.value.hub) == (1, 0)
        assert store.total_entries == 0
        assert engine.run(0, store) == self.PLAIN

    @pytest.mark.parametrize(
        "field, value", [("off", -1), ("off", 10**6), ("size", 10**6)]
    )
    def test_run_outside_arena(self, kernel, path_graph, field, value):
        """A run that does not lie inside the arena ends in a GraphError
        naming the vertex, never in a read past the arrays."""
        engine = make_engine(path_graph, [0, 1, 2, 3])
        store = LabelStore(4)
        engine.commit(0, engine.run(0, store), store)
        off, size, _ah, _ad, _cap = store.arena()
        {"off": off, "size": size}[field][2] = value
        with pytest.raises(GraphError, match="run of vertex 2 lies outside") as err:
            engine.run(1, store)
        assert err.value.vertex == 2
        assert engine.run(0, LabelStore(4)) == self.PLAIN

    def test_int_distances_accepted(self, kernel, monkeypatch, path_graph):
        order = [1, 0, 2, 3]
        store = LabelStore(4)
        for v, d in [(0, 1), (1, 0), (2, 2), (3, 5)]:
            store.add(v, 0, d)
        reference = reference_engine(monkeypatch, path_graph, order)
        assert make_engine(path_graph, order).run(0, store) == reference.run(
            0, store
        )

    def test_reader_sees_only_published_entries(
        self, kernel, monkeypatch, path_graph
    ):
        """A writer stores an entry in its run's next free slot before it
        publishes the run's new ``size``.  A search in between, compiled
        or Python, must not see the entry: here one that would prune the
        root itself if it were visible."""
        order = [1, 0, 2, 3]
        kernel_engine = make_engine(path_graph, order)
        reference = reference_engine(monkeypatch, path_graph, order)
        store = LabelStore(4)
        kernel_engine.commit(1, kernel_engine.run(1, store), store)
        off, size, ah, ad, cap = store.arena()
        for v in range(4):
            assert size[v] < cap[v]
            ah[off[v] + size[v]] = 1
            ad[off[v] + size[v]] = 0.0
        for engine in (kernel_engine, reference):
            stats = SearchStats()
            assert engine.run(0, store, stats) == [(0, 0.0)]
            assert (stats.pruned, stats.query_entries_scanned) == (1, 2)

    def test_store_smaller_than_graph(self, kernel, path_graph):
        with pytest.raises(GraphError, match="label store holds 3 vertices"):
            make_engine(path_graph).run(0, LabelStore(3))

    def test_frozen_store_runs_python_loop(self, kernel, path_graph):
        engine = make_engine(path_graph, [1, 0, 2, 3])
        store = LabelStore(4)
        engine.commit(1, engine.run(1, store), store)
        frozen = LabelStore.from_arrays(**store.copy().to_arrays())
        assert frozen.arena() is None
        assert store.arena() is not None
        assert engine.run(0, frozen) == engine.run(0, store) == [(0, 0.0)]


class TestKernelBuild:
    def test_source_ships_as_package_data(self):
        source = importlib.resources.files("repro.core").joinpath(
            "pruned_dijkstra.c"
        )
        assert source.is_file()
        assert b"pd_run" in source.read_bytes()

    def test_compiles_into_cache_keyed_by_source(self, monkeypatch, tmp_path):
        if shutil.which(native.COMPILER) is None:
            pytest.skip("no C compiler")
        monkeypatch.setattr(native, "_lib", native._UNTRIED)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert pruned_dijkstra._load_kernel() is not None
        source = importlib.resources.files("repro.core").joinpath(
            "pruned_dijkstra.c"
        )
        key = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        assert os.listdir(tmp_path / "parapll") == [
            f"pruned_dijkstra-{key}{suffix}"
        ]

    def test_missing_compiler_falls_back_once(
        self, monkeypatch, tmp_path, caplog, random_graph
    ):
        """No compiler and an empty cache: one warning per process, and
        the Python loop builds the same labels as the default build."""
        expected, _ = build_serial(random_graph)
        monkeypatch.setattr(native, "_lib", native._UNTRIED)
        monkeypatch.setattr(native, "COMPILER", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            stores = [build_serial(random_graph)[0] for _ in range(2)]
        warnings = [
            r for r in caplog.records
            if r.name == native.__name__ and r.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert "using the Python loop" in warnings[0].getMessage()
        expected.finalize()
        for store in stores:
            store.finalize()
            for name, array in store.to_arrays().items():
                np.testing.assert_array_equal(array, expected.to_arrays()[name])
