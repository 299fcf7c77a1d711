"""Coverage for small cross-cutting pieces: errors, engines, runner."""

import pytest

from repro.core.engines import ENGINES, make_engine
from repro.core.pruned_bfs import PrunedBFS
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.errors import (
    BenchmarkError,
    CommError,
    GraphError,
    GraphFormatError,
    IndexError_,
    NotIndexedError,
    OrderingError,
    ReproError,
    SimulationError,
    TaskError,
)
from repro.graph.order import by_degree


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphError,
            GraphFormatError,
            IndexError_,
            NotIndexedError,
            OrderingError,
            SimulationError,
            CommError,
            TaskError,
            BenchmarkError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_format_error_is_graph_error(self):
        assert issubclass(GraphFormatError, GraphError)

    def test_not_indexed_is_index_error(self):
        assert issubclass(NotIndexedError, IndexError_)

    def test_comm_error_is_simulation_error(self):
        assert issubclass(CommError, SimulationError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise TaskError("boom")


class TestEngineRegistry:
    def test_registry_contents(self):
        assert set(ENGINES) == {"dijkstra", "bfs"}

    def test_make_dijkstra(self, random_graph):
        engine = make_engine(
            "dijkstra", random_graph, by_degree(random_graph)
        )
        assert isinstance(engine, PrunedDijkstra)

    def test_make_bfs(self, random_graph):
        engine = make_engine("bfs", random_graph, by_degree(random_graph))
        assert isinstance(engine, PrunedBFS)

    def test_unknown_engine(self, random_graph):
        with pytest.raises(ReproError, match="unknown engine"):
            make_engine("astar", random_graph, by_degree(random_graph))


class TestRunnerEdgeCases:
    def test_unknown_experiment_raises(self):
        from repro.bench.harness import BenchConfig
        from repro.bench.runner import run_experiment

        with pytest.raises(BenchmarkError):
            run_experiment("table99", BenchConfig(scale=0.1), None)


class TestOracleEagerKnn:
    def test_build_knn_eager(self, random_graph):
        from repro.core.index import PLLIndex
        from repro.service import DistanceOracle

        oracle = DistanceOracle(
            PLLIndex.build(random_graph), build_knn=True
        )
        assert oracle._knn is not None
        out = oracle.k_nearest(0, 3)
        assert len(out) == 3


class TestVersionExports:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name)
