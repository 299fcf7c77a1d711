"""Tests for the real thread-based ParaPLL (correctness under concurrency)."""

import pytest

from repro.baselines.dijkstra import dijkstra_sssp
from repro.core.serial import build_serial
from repro.errors import TaskError
from repro.parallel.threads import build_parallel_threads
from repro.generators.random_graphs import gnm_random_graph


@pytest.mark.parametrize("policy", ["static", "dynamic"])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_exact_distances(random_graph, policy, threads):
    """Proposition 1: any schedule yields exact query answers."""
    index = build_parallel_threads(random_graph, threads, policy=policy)
    for s in (0, 13, 29):
        truth = dijkstra_sssp(random_graph, s)
        for t in range(random_graph.num_vertices):
            assert index.distance(s, t) == truth[t]


def test_single_thread_matches_serial_exactly(random_graph):
    """p=1 is the serial algorithm: identical label sets, not just answers."""
    index = build_parallel_threads(random_graph, 1, policy="dynamic")
    serial_store, _ = build_serial(random_graph)
    assert index.store == serial_store


def test_parallel_labels_are_superset_in_correctness(medium_graph):
    """Redundant labels allowed; every entry must be a true distance."""
    index = build_parallel_threads(medium_graph, 4, policy="dynamic")
    order = index.order
    for v in range(0, medium_graph.num_vertices, 17):
        truth_to_v = None
        for hub_rank, dist in index.store.entries_of(v):
            hub = int(order[hub_rank])
            truth = dijkstra_sssp(medium_graph, hub)
            assert truth[v] == dist


def test_stats_recorded(random_graph):
    index = build_parallel_threads(random_graph, 2)
    assert index.stats is not None
    assert index.stats.build_seconds > 0
    assert index.stats.total_entries == index.store.total_entries


def test_invalid_thread_count(random_graph):
    with pytest.raises(TaskError):
        build_parallel_threads(random_graph, 0)


def test_invalid_policy(random_graph):
    with pytest.raises(TaskError):
        build_parallel_threads(random_graph, 2, policy="nope")


def test_chunked_dynamic(random_graph):
    index = build_parallel_threads(
        random_graph, 3, policy="dynamic", chunk=4
    )
    truth = dijkstra_sssp(random_graph, 2)
    for t in range(random_graph.num_vertices):
        assert index.distance(2, t) == truth[t]


def test_disconnected_graph(two_components):
    index = build_parallel_threads(two_components, 2)
    assert index.distance(0, 1) == 1.0
    assert index.distance(0, 2) == float("inf")


def test_larger_graph_many_threads():
    g = gnm_random_graph(150, 450, seed=3)
    index = build_parallel_threads(g, 8, policy="dynamic")
    truth = dijkstra_sssp(g, 0)
    for t in range(g.num_vertices):
        assert index.distance(0, t) == truth[t]


def test_poisoned_root_fails_fast(random_graph, monkeypatch):
    """The first failure sets the shared stop flag: survivors abort at
    their next task grab instead of indexing the whole remaining root
    set before the error surfaces."""
    from repro.core import engines

    n = random_graph.num_vertices
    attempts = []  # list.append is atomic under the GIL
    real = engines.make_engine

    class _Poisoned:
        def __init__(self, inner, poison):
            self._inner = inner
            self._poison = poison

        def run(self, root, store, stats=None):
            attempts.append(root)
            if root == self._poison:
                raise ValueError(f"poisoned root {root}")
            return self._inner.run(root, store, stats)

        def commit(self, root, delta, store):
            return self._inner.commit(root, delta, store)

        def flush_metrics(self):
            self._inner.flush_metrics()

        def rank_of(self, v):
            return self._inner.rank_of(v)

    def patched(kind, graph, order, **kwargs):
        poison = int(list(order)[4])
        return _Poisoned(real(kind, graph, order, **kwargs), poison)

    monkeypatch.setattr(engines, "make_engine", patched)
    with pytest.raises(ValueError, match="poisoned root") as excinfo:
        build_parallel_threads(random_graph, 4, policy="dynamic")
    assert isinstance(excinfo.value.__cause__, TaskError)
    # Poison at index 4: the roots before it, the poison itself, and at
    # most ~one in-flight root per surviving worker — far below the n
    # an un-cancelled build would burn through.
    assert len(attempts) <= 4 + 1 + 3 * 4
    assert len(attempts) < n // 2
