"""Benchmarks for the extension features beyond the paper's core.

* kNN via inverted labels vs. the naive full scan,
* incremental edge insertion vs. full rebuild,
* pruned BFS vs. pruned Dijkstra on unit weights (the setting of the
  paper's reference [11], which ParaPLL generalises).
"""

import random

import pytest

from repro.core.dynamic import DynamicPLL
from repro.core.index import PLLIndex
from repro.core.knn import KNNIndex
from repro.core.serial import build_serial
from repro.errors import GraphError
from repro.generators.paper import load_dataset

from conftest import bench_scale


@pytest.fixture(scope="module")
def graph():
    return load_dataset("Epinions", scale=bench_scale(), seed=42)


@pytest.fixture(scope="module")
def index(graph):
    return PLLIndex.build(graph)


def test_knn_inverted_labels(benchmark, graph, index):
    knn = KNNIndex(index.store)
    rng = random.Random(0)
    sources = [rng.randrange(graph.num_vertices) for _ in range(64)]
    benchmark(lambda: [knn.k_nearest(s, 10) for s in sources])


def test_knn_naive_scan(benchmark, graph, index):
    rng = random.Random(0)
    sources = [rng.randrange(graph.num_vertices) for _ in range(8)]

    def naive(s):
        scored = sorted(
            (index.distance(s, v), v)
            for v in range(graph.num_vertices)
            if v != s
        )
        return scored[:10]

    benchmark(lambda: [naive(s) for s in sources])


def test_dynamic_insertion_vs_rebuild(benchmark, graph):
    def run():
        dyn = DynamicPLL(PLLIndex.build(graph))
        rng = random.Random(3)
        inserted = 0
        while inserted < 10:
            a = rng.randrange(graph.num_vertices)
            b = rng.randrange(graph.num_vertices)
            try:
                dyn.insert_edge(a, b, float(rng.randint(1, 10)))
                inserted += 1
            except GraphError:
                continue
        return dyn.store.total_entries

    entries = benchmark.pedantic(run, rounds=1, iterations=1)
    assert entries > 0


def test_bfs_vs_dijkstra_unit_weights(benchmark, graph):
    """Unweighted PLL is faster and produces the identical label set."""
    unit = graph.unit_weighted()

    def run():
        import time

        t0 = time.perf_counter()
        bfs_store, _ = build_serial(unit, engine="bfs")
        t_bfs = time.perf_counter() - t0
        t0 = time.perf_counter()
        dij_store, _ = build_serial(unit)
        t_dij = time.perf_counter() - t0
        return bfs_store, dij_store, t_bfs, t_dij

    bfs_store, dij_store, t_bfs, t_dij = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(f"\n  pruned BFS {t_bfs:.2f}s vs pruned Dijkstra {t_dij:.2f}s")
    assert bfs_store == dij_store
    assert t_bfs < t_dij  # no heap, no log factor
