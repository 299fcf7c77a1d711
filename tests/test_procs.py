"""Tests for the process-based ParaPLL backend (real multi-core builds).

The equivalence suite mirrors ``tests/test_threads.py``: Proposition 1
says any schedule — including the procs backend's coarser task-boundary
visibility — yields exact query answers, and ``p=1`` must reproduce the
serial label set exactly.  On top of that, the worker-lifecycle suite
exercises failure propagation (a child exception surfaces as the
original error ``from`` a ``TaskError`` naming worker and root), the
fail-fast stop (a poisoned root aborts the build within about one root
of work per worker), and the chaos case: a worker SIGKILLed mid-build
must produce a clean ``TaskError``, never a hang.

Engine injection works by monkeypatching ``repro.core.engines
.make_engine`` before the build: workers are forked from the patched
parent, so they inherit the patched registry.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra_sssp
from repro.core import engines
from repro.core.index import PLLIndex
from repro.core.serial import build_serial
from repro.errors import GraphError, TaskError
from repro.generators.paper import load_dataset
from repro.generators.random_graphs import gnm_random_graph
from repro.graph.order import by_degree
from repro.parallel.procs import (
    BLOCK_LABELS,
    BLOCK_SHARE,
    build_parallel_procs,
)
from repro.parallel.shm import GrowableLabelLog, LabelLog, SharedGraph

from .conftest import build_graph

#: The chaos tests depend on fork semantics (inherited monkeypatches,
#: process sentinels); the whole module is Linux/fork-oriented.
pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="procs backend tests require the fork start method",
)


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------
class TestSharedMemory:
    def test_graph_roundtrip(self, random_graph):
        shared = SharedGraph.export(random_graph)
        try:
            attached = SharedGraph.attach(shared.meta)
            try:
                g = attached.graph
                assert g.num_vertices == random_graph.num_vertices
                assert np.array_equal(g.indptr, random_graph.indptr)
                assert np.array_equal(g.indices, random_graph.indices)
                assert np.array_equal(g.weights, random_graph.weights)
            finally:
                attached.close()
        finally:
            shared.close(unlink=True)

    def test_label_log_commit_visibility(self):
        log = GrowableLabelLog(capacity=4)
        try:
            reader = LabelLog.attach(log.meta)
            assert reader.committed == 0
            log.append(
                np.array([3, 5], dtype=np.int64),
                np.array([0, 0], dtype=np.int64),
                np.array([1.5, 2.5]),
            )
            assert reader.committed == 2
            verts, hubs, dists = reader.read(0, 2)
            assert verts.tolist() == [3, 5]
            assert hubs.tolist() == [0, 0]
            assert dists.tolist() == [1.5, 2.5]
            reader.close()
        finally:
            log.close_all()

    def test_label_log_growth_keeps_entries_and_indices(self):
        log = GrowableLabelLog(capacity=2)
        try:
            for i in range(10):
                log.append(
                    np.array([i], dtype=np.int64),
                    np.array([i % 3], dtype=np.int64),
                    np.array([float(i)]),
                )
            assert log.generations > 1
            assert log.committed == 10
            reader = LabelLog.attach(log.meta)
            verts, hubs, dists = reader.read(0, 10)
            assert verts.tolist() == list(range(10))
            assert dists.tolist() == [float(i) for i in range(10)]
            reader.close()
        finally:
            log.close_all()


# ----------------------------------------------------------------------
# Equivalence with the serial build (Proposition 1)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["static", "dynamic"])
@pytest.mark.parametrize("procs", [1, 2, 4])
def test_exact_distances(random_graph, policy, procs):
    """Any process schedule yields exact query answers."""
    index = build_parallel_procs(random_graph, procs, policy=policy)
    for s in (0, 13, 29):
        truth = dijkstra_sssp(random_graph, s)
        for t in range(random_graph.num_vertices):
            assert index.distance(s, t) == truth[t]


def test_single_proc_matches_serial_exactly(random_graph):
    """p=1 commits each root before dispatching the next: the parallel
    backend degenerates to the serial algorithm, identical label sets."""
    index = build_parallel_procs(random_graph, 1, policy="dynamic")
    serial_store, _ = build_serial(random_graph)
    assert index.store == serial_store


def test_query_exact_on_random_pairs(medium_graph):
    serial = PLLIndex.build(medium_graph)
    index = build_parallel_procs(medium_graph, 4, policy="dynamic", chunk=2)
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, medium_graph.num_vertices, size=(300, 2))
    assert np.allclose(
        serial.distance_batch(pairs),
        index.distance_batch(pairs),
        equal_nan=True,
    )


def test_every_label_entry_is_a_true_distance(medium_graph):
    """Redundant labels allowed; every entry must be a true distance."""
    index = build_parallel_procs(medium_graph, 4, policy="dynamic")
    order = index.order
    for v in range(0, medium_graph.num_vertices, 17):
        for hub_rank, dist in index.store.entries_of(v):
            hub = int(order[hub_rank])
            truth = dijkstra_sssp(medium_graph, hub)
            assert truth[v] == dist


@pytest.mark.parametrize("dataset, scale", [("Gnutella", 2), ("DE-USA", 2)])
def test_label_growth_within_bound(dataset, scale):
    """Blocks of roots prune against labels as of the block start, which
    only adds redundant entries (Propositions 1 and 2).  On a power-law
    and a road stand-in at p=2 the index stays Dijkstra-exact and at
    most 10% larger than the serial one."""
    graph = load_dataset(dataset, scale)
    serial_store, _ = build_serial(graph)
    index = build_parallel_procs(graph, 2)
    for s in range(0, graph.num_vertices, graph.num_vertices // 5):
        truth = dijkstra_sssp(graph, s)
        got = index.distance_batch(
            [(s, t) for t in range(graph.num_vertices)]
        )
        assert np.array_equal(got, truth)
    assert index.store.total_entries <= 1.10 * serial_store.total_entries


def test_stats_recorded(random_graph):
    index = build_parallel_procs(random_graph, 2)
    assert index.stats is not None
    assert index.stats.build_seconds > 0
    assert index.stats.total_entries == index.store.total_entries


def test_invalid_proc_count(random_graph):
    with pytest.raises(TaskError):
        build_parallel_procs(random_graph, 0)


def test_invalid_policy(random_graph):
    with pytest.raises(TaskError):
        build_parallel_procs(random_graph, 2, policy="nope")


def test_disconnected_graph(two_components):
    index = build_parallel_procs(two_components, 2)
    assert index.distance(0, 1) == 1.0
    assert index.distance(0, 2) == float("inf")


def test_build_parallel_dispatch(random_graph):
    """PLLIndex.build_parallel routes to the right backend."""
    serial_store, _ = build_serial(random_graph)
    for backend in ("threads", "procs"):
        index = PLLIndex.build_parallel(random_graph, 1, backend=backend)
        assert index.store == serial_store
    with pytest.raises(GraphError):
        PLLIndex.build_parallel(random_graph, 1, backend="fibers")


# ----------------------------------------------------------------------
# Worker lifecycle: failure propagation, fail-fast, chaos
# ----------------------------------------------------------------------
class _PoisonEngine:
    """Wraps a real engine; raises (or kills the process) on one root.

    ``counter``, when given, is a ``multiprocessing.Value`` bumped once
    per attempted root across all workers — the fail-fast probes read
    it from the parent after the build dies.
    """

    def __init__(
        self, inner, poison, counter=None, kill=False, delay=0.0,
        at_poison=None,
    ):
        self._inner = inner
        self._poison = poison
        self._counter = counter
        self._kill = kill
        self._delay = delay
        self._at_poison = at_poison

    def run(self, root, store, stats=None):
        if self._counter is not None:
            with self._counter.get_lock():
                self._counter.value += 1
        if root == self._poison:
            if self._at_poison is not None:
                self._at_poison.value = self._counter.value
            if self._kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError(f"poisoned root {root}")
        time.sleep(self._delay)
        return self._inner.run(root, store, stats)

    def rank_of(self, v):
        return self._inner.rank_of(v)

    def commit(self, root, delta, store):
        return self._inner.commit(root, delta, store)

    def flush_metrics(self):
        self._inner.flush_metrics()


def _patch_poison(monkeypatch, poison_index, counter=None, **options):
    """Patch the engine registry with a poisoned wrapper (fork-visible)."""
    real = engines.make_engine

    def patched(kind, graph, order, **kwargs):
        poison = int(list(order)[poison_index])
        return _PoisonEngine(
            real(kind, graph, order, **kwargs),
            poison,
            counter=counter,
            **options,
        )

    monkeypatch.setattr(engines, "make_engine", patched)


def test_failure_propagation(random_graph, monkeypatch):
    """A child exception re-raises in the parent, from a TaskError that
    names the worker and the root — the thread backend's shape."""
    _patch_poison(monkeypatch, poison_index=5)
    with pytest.raises(ValueError, match="poisoned root") as excinfo:
        build_parallel_procs(random_graph, 2, timeout=60.0)
    cause = excinfo.value.__cause__
    assert isinstance(cause, TaskError)
    assert cause.worker in (0, 1)
    assert cause.root is not None
    assert cause.failures >= 1


def test_fail_fast_aborts_promptly(random_graph, monkeypatch):
    """After the first failure the survivors stop at their next task
    boundary: nowhere near the full root set gets indexed.

    How many roots the survivors start before the poison fires depends
    on block sizes and scheduling, so the bound counts the roots
    attempted after it, as test_fail_fast_stops_inside_a_block does.
    """
    n = random_graph.num_vertices
    counter = multiprocessing.Value("i", 0)
    at_poison = multiprocessing.Value("i", 0)
    _patch_poison(
        monkeypatch, poison_index=4, counter=counter, at_poison=at_poison
    )
    with pytest.raises(ValueError):
        build_parallel_procs(random_graph, 4, timeout=60.0)
    assert at_poison.value > 0
    # After the poison: a couple of dispatch races per surviving worker,
    # far below the n roots an un-cancelled build would burn.
    assert counter.value - at_poison.value <= 3 * 4
    assert counter.value < n // 2


def test_fail_fast_stops_inside_a_block(monkeypatch):
    """Fail-fast is per root, not per block: a survivor stops between
    two roots of its block instead of finishing the block.

    Leaves of a star add one label each.  The hub's root commits one
    label per leaf, enough that the share cap allows ``BLOCK_LABELS``
    labels per block, so after a leaf or two a worker gets blocks of
    ``BLOCK_LABELS`` roots.  Each root is slowed down, and with static
    round-robin dispatch both workers run in step.  The poison sits 30
    roots into worker 0's first big block, when worker 1 still has
    about 90 roots of its own block to go.
    """
    leaves = BLOCK_SHARE * BLOCK_LABELS
    star = build_graph([(0, v, 1.0 + v % 7) for v in range(1, leaves + 1)])
    counter = multiprocessing.Value("i", 0)
    at_poison = multiprocessing.Value("i", 0)
    # Worker 0 takes order[0::2]: the hub, a leaf, then a big block.
    _patch_poison(
        monkeypatch,
        poison_index=2 * (2 + 30),
        counter=counter,
        delay=0.01,
        at_poison=at_poison,
    )
    with pytest.raises(ValueError):
        build_parallel_procs(star, 2, policy="static", timeout=60.0)
    assert at_poison.value > 0
    # Roots attempted after the poison: the survivor's next root or
    # two, against about 90 if it finished its block.
    assert counter.value - at_poison.value < BLOCK_LABELS // 8


def test_sigkilled_worker_is_a_clean_error_not_a_hang(
    random_graph, monkeypatch
):
    """Chaos: SIGKILL one worker mid-build; the parent must notice via
    the process sentinel and raise a TaskError naming the worker."""
    _patch_poison(monkeypatch, poison_index=7, kill=True)
    with pytest.raises(TaskError) as excinfo:
        build_parallel_procs(random_graph, 2, timeout=60.0)
    err = excinfo.value
    assert "died" in str(err)
    assert err.worker in (0, 1)
    assert err.exitcode == -signal.SIGKILL
    # No root of the dead worker's block came back: the error names
    # its first root and the whole block, which holds the poison.
    assert err.root == err.roots[0]
    assert int(by_degree(random_graph)[7]) in err.roots


def test_larger_graph_many_procs():
    g = gnm_random_graph(150, 450, seed=3)
    index = build_parallel_procs(g, 6, policy="dynamic", chunk=3)
    truth = dijkstra_sssp(g, 0)
    for t in range(g.num_vertices):
        assert index.distance(0, t) == truth[t]


# ----------------------------------------------------------------------
# Fork-boundary telemetry
# ----------------------------------------------------------------------
def test_buildmon_sees_every_root(random_graph):
    from repro.obs import buildmon

    monitor = buildmon.BuildMonitor(total_roots=random_graph.num_vertices)
    with buildmon.monitored(monitor):
        build_parallel_procs(random_graph, 2)
    snap = monitor.snapshot()
    assert snap["roots_done"] == random_graph.num_vertices


def test_worker_telemetry_relays_to_collector(random_graph):
    """Workers open RelayClients: the parent's collector sees one
    source per worker rank, with frames delivered."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.relay import Collector

    with Collector(registry=MetricsRegistry()) as collector:
        build_parallel_procs(
            random_graph, 2, relay=(collector.host, collector.port)
        )
        stats = collector.stats()
    ranks = {
        src["rank"] for src in stats["sources"].values()
    }
    assert ranks == {0, 1}
    assert stats["frames"] > 0
