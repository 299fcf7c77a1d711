"""Property-based tests (hypothesis) for the core invariants.

The headline invariant — PLL answers equal Dijkstra on arbitrary
weighted graphs — is exercised here over randomly generated edge lists,
orderings, and parallel schedules.
"""

import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra_sssp
from repro.check.invariants import verify_index
from repro.cluster.parapll import simulate_cluster
from repro.cluster.runner import run_cluster_threads
from repro.core import pruned_dijkstra
from repro.core.index import PLLIndex
from repro.core.labels import Delta, LabelStore
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.core.query import (
    merge_join,
    query_distance,
    query_distance_batch,
    query_numpy,
    query_result,
)
from repro.core.serial import build_serial
from repro.graph.builder import GraphBuilder
from repro.graph.order import by_random
from repro.service.oracle import DistanceOracle
from repro.service.server import _dispatch
from repro.sim.executor import simulate_intra_node
from repro.types import SearchStats


@st.composite
def graphs(draw, max_n=14, max_m=30):
    """A random small weighted graph (possibly disconnected)."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    builder = GraphBuilder(num_vertices=n)
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        w = draw(
            st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)
        )
        if u != v:
            builder.add_edge(u, v, w)
    return builder.build()


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_serial_pll_equals_dijkstra(graph):
    store, _ = build_serial(graph)
    store.finalize()
    for s in range(graph.num_vertices):
        truth = dijkstra_sssp(graph, s)
        for t in range(graph.num_vertices):
            got = query_distance(store, s, t)
            assert got == truth[t] or math.isclose(got, truth[t])


@given(graphs(), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_pll_invariant_under_any_ordering(graph, seed):
    order = by_random(graph, seed=seed)
    store, _ = build_serial(graph, order=order)
    store.finalize()
    truth = dijkstra_sssp(graph, 0)
    for t in range(graph.num_vertices):
        got = query_distance(store, 0, t)
        assert got == truth[t] or math.isclose(got, truth[t])


@given(graphs(), st.integers(2, 6), st.sampled_from(["static", "dynamic"]))
@settings(max_examples=30, deadline=None)
def test_simulated_parallel_is_exact(graph, workers, policy):
    """Proposition 1 under arbitrary simulated schedules."""
    index, _run = simulate_intra_node(
        graph, workers, policy=policy, jitter=0.4, worker_jitter=0.4, seed=1
    )
    truth = dijkstra_sssp(graph, 0)
    for t in range(graph.num_vertices):
        got = index.distance(0, t)
        assert got == truth[t] or math.isclose(got, truth[t])


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_parallel_entries_superset_of_serial(graph):
    """Out-of-order indexing only ever ADDS labels (redundancy, §4.3)."""
    serial_store, _ = build_serial(graph)
    index, _run = simulate_intra_node(graph, 4, jitter=0.3, seed=2)
    for v in range(graph.num_vertices):
        serial_hubs = set(serial_store.hubs_of(v))
        parallel_hubs = set(index.store.hubs_of(v))
        assert serial_hubs <= parallel_hubs


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_query_implementations_agree(graph):
    store, _ = build_serial(graph)
    store.finalize()
    for s in range(graph.num_vertices):
        for t in range(graph.num_vertices):
            assert query_distance(store, s, t) == query_numpy(store, s, t)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 9),
            st.integers(0, 9),
            st.floats(0.1, 100, allow_nan=False),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_label_store_roundtrip(entries):
    store = LabelStore(10)
    store.add_delta(entries)
    back = LabelStore.from_arrays(**store.to_arrays())
    # Roundtrip dedupes to the min distance; re-serialising is stable.
    again = LabelStore.from_arrays(**back.to_arrays())
    assert back == again


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_index_save_load_preserves_distances(tmp_path_factory, graph):
    index = PLLIndex.build(graph)
    path = tmp_path_factory.mktemp("idx") / "x.npz"
    index.save(path)
    loaded = PLLIndex.load(path)
    for s in range(graph.num_vertices):
        for t in range(graph.num_vertices):
            assert loaded.distance(s, t) == index.distance(s, t)


@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
    st.floats(0.5, 10.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_builder_idempotent_under_duplicates(pairs, weight):
    """Adding the same edge list twice changes nothing (min policy)."""
    a = GraphBuilder(num_vertices=9)
    b = GraphBuilder(num_vertices=9)
    for u, v in pairs:
        if u != v:
            a.add_edge(u, v, weight)
            b.add_edge(u, v, weight)
            b.add_edge(v, u, weight)
    assert a.build() == b.build()


# ----------------------------------------------------------------------
# The compiled kernel against the Python reference loop
# ----------------------------------------------------------------------
@st.composite
def tied_graphs(draw, max_n=14, max_m=30):
    """A small graph in two disconnected parts, with isolated vertices
    likely and weights drawn from a few values, so distances tie often.

    Zero weights cannot occur: ``CSRGraph`` rejects them, so ``1e-9``
    stands in for a near-zero edge."""
    n = draw(st.integers(1, max_n))
    split = draw(st.integers(0, n))
    builder = GraphBuilder(num_vertices=n)
    for lo, hi in ((0, split), (split, n)):
        if hi - lo < 2:
            continue
        for _ in range(draw(st.integers(0, max_m // 2))):
            u = draw(st.integers(lo, hi - 1))
            v = draw(st.integers(lo, hi - 1))
            w = draw(st.sampled_from([1.0, 1.0, 2.0, 0.5, 3.0, 1e-9]))
            if u != v:
                builder.add_edge(u, v, w)
    return builder.build()


@pytest.fixture(scope="module")
def kernel():
    """Skip unless the compiled kernel builds and loads here."""
    if pruned_dijkstra._load_kernel() is None:
        pytest.skip("no C compiler: the compiled kernel is unavailable")


def _reference_loop():
    """Engines constructed inside run the Python loop."""
    return mock.patch.object(pruned_dijkstra, "_load_kernel", return_value=None)


def _assert_exact(index, graph):
    for s in range(graph.num_vertices):
        truth = dijkstra_sssp(graph, s)
        for t in range(graph.num_vertices):
            got = index.distance(s, t)
            assert got == truth[t] or math.isclose(got, truth[t])


@pytest.mark.usefixtures("kernel")
@given(tied_graphs(), st.integers(0, 10))
@settings(max_examples=80, deadline=None)
@example(GraphBuilder(num_vertices=1).build(), 0)
def test_kernel_matches_reference_loop(graph, seed):
    """Same delta arrays and the same six counters per root, then the
    same finalized labels, entry for entry."""
    order = by_random(graph, seed=seed)
    kernel = PrunedDijkstra(graph, order)
    with _reference_loop():
        reference = PrunedDijkstra(graph, order)
    assert kernel._kernel is not None and reference._kernel is None
    stores = LabelStore(graph.num_vertices), LabelStore(graph.num_vertices)
    for root in order.tolist():
        stats = SearchStats(), SearchStats()
        deltas = [
            engine.run(root, store, st_)
            for engine, store, st_ in zip((kernel, reference), stores, stats)
        ]
        for a, b in zip(
            (deltas[0].verts, deltas[0].dists), (deltas[1].verts, deltas[1].dists)
        ):
            assert a.dtype == b.dtype and not a.flags.writeable
            np.testing.assert_array_equal(a, b)
        assert len(deltas[0]) == stats[0].labels_added
        assert stats[0] == stats[1]
        for engine, store, delta in zip((kernel, reference), stores, deltas):
            engine.commit(root, delta, store)
    for store in stores:
        store.finalize()
    assert stores[0] == stores[1]
    for a, b in zip(stores[0].finalized_arrays(), stores[1].finalized_arrays()):
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# The compiled query join against the Python reference
# ----------------------------------------------------------------------
@st.composite
def label_stores(draw, max_n=8):
    """A finalized store from random entries: empty labels likely,
    distances from a few values (and inf), so hub sums tie often."""
    n = draw(st.integers(1, max_n))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 1e-9, math.inf]),
            ),
            max_size=30,
        )
    )
    columns = list(zip(*entries)) or [(), (), ()]
    verts, hubs, dists = (
        np.array(c, dtype)
        for c, dtype in zip(columns, (np.int64, np.int64, np.float64))
    )
    return LabelStore.from_entries(n, verts, hubs, dists)


def _loaded_stores(index, tmp_path):
    """*index*'s store as built, then loaded from npz, dir and mmap'd dir."""
    index.save(tmp_path / "x.npz")
    index.save(tmp_path / "x.index", format="dir")
    return [
        index.store,
        PLLIndex.load(tmp_path / "x.npz").store,
        PLLIndex.load(tmp_path / "x.index").store,
        PLLIndex.load(tmp_path / "x.index", mmap=True).store,
    ]


def _assert_join_matches_reference(store):
    """Compiled distance, hub and scan count equal the reference's bit
    for bit, pair by pair and as one batch; s == t included."""
    assert store.query_context() is not None
    pairs = [(s, t) for s in range(store.n) for t in range(store.n)]
    want = [merge_join(store, s, t) for s, t in pairs]
    dists = np.array([d for d, _hub, _scanned in want])
    got = np.array([query_distance(store, s, t) for s, t in pairs])
    assert got.tobytes() == dists.tobytes()
    assert query_distance_batch(store, pairs).tobytes() == dists.tobytes()
    for (s, t), (d, hub, scanned) in zip(pairs, want):
        res = query_result(store, s, t)
        assert np.float64(res.distance).tobytes() == np.float64(d).tobytes()
        assert res.hub == (None if hub < 0 else hub)
        assert res.entries_scanned == scanned


@pytest.mark.usefixtures("kernel")
@given(tied_graphs(), st.integers(0, 10), label_stores())
@settings(max_examples=40, deadline=None)
def test_query_kernel_matches_reference(tmp_path_factory, graph, seed, labels):
    """Built stores (isolated vertices, disconnected parts) and random
    ones (empty labels, ties), each as built and loaded back."""
    tmp_path = tmp_path_factory.mktemp("q")
    built = PLLIndex.build(graph, order=by_random(graph, seed=seed))
    adopted = PLLIndex(labels, np.arange(labels.n))
    for index in (built, adopted):
        for store in _loaded_stores(index, tmp_path):
            _assert_join_matches_reference(store)


@pytest.mark.usefixtures("kernel")
@given(label_stores())
@settings(max_examples=40, deadline=None)
def test_adopted_foreign_arrays_answer_alike(labels):
    """A store adopted from non-contiguous or foreign-dtype arrays
    answers as the store they came from."""
    indptr, hubs, dists = labels.finalized_arrays()
    strided = [np.repeat(a, 2)[::2] for a in (indptr, hubs, dists)]
    foreign = [indptr.astype(">i8"), hubs.astype(np.int32), dists.astype(">f8")]
    pairs = [(s, t) for s in range(labels.n) for t in range(labels.n)]
    want = query_distance_batch(labels, pairs).tobytes()
    for arrays in (strided, foreign):
        store = LabelStore.from_arrays(*arrays)
        _assert_join_matches_reference(store)
        assert query_distance_batch(store, pairs).tobytes() == want


def _serial(graph):
    return PLLIndex.build(graph)


def _threads_static(graph):
    return PLLIndex.build_parallel(graph, 3, policy="static")


def _threads_dynamic(graph):
    return PLLIndex.build_parallel(graph, 4, policy="dynamic")


def _procs2(graph):
    return PLLIndex.build_parallel(graph, 2, backend="procs")


def _simulated(graph):
    return simulate_intra_node(graph, 3, jitter=0.3, seed=3)[0]


def _cluster_sim(graph):
    return simulate_cluster(graph, 2, threads_per_node=2, syncs=2)[0]


def _cluster_threads(graph):
    return run_cluster_threads(graph, 2, syncs=2)


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize(
    "build",
    [
        _serial, _threads_static, _threads_dynamic, _procs2, _simulated,
        _cluster_sim, _cluster_threads,
    ],
)
@given(graph=tied_graphs(max_n=10, max_m=20))
@settings(max_examples=4, deadline=None)
def test_parallel_builders_with_kernel_are_exact(build, graph):
    """Query-exact, and every label entry a true distance; only the
    serial build must be canonical."""
    index = build(graph)
    _assert_exact(index, graph)
    entries = index.store.total_entries
    report = verify_index(
        index, graph=graph, samples=entries,
        strict_minimality=build is _serial,
    )
    assert report.ok, report.render()
    assert report.checked_entries == entries


# ----------------------------------------------------------------------
# The serving paths against the reference join
# ----------------------------------------------------------------------
def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@given(tied_graphs(), st.integers(0, 10))
@settings(max_examples=15, deadline=None)
def test_serving_paths_match_reference_join(graph, seed):
    """The oracle's point and batch paths and the server's batch op
    answer bit for bit as ``merge_join``.  The batch holds every pair
    next to its reverse and again shuffled, so a 2-entry LRU hits,
    misses and evicts, and its symmetric keys serve reversed pairs."""
    index = PLLIndex.build(graph, order=by_random(graph, seed=seed))
    n = index.num_vertices
    base = [(s, t) for s in range(n) for t in range(n)]
    shuffled = list(base)
    np.random.default_rng(seed).shuffle(shuffled)
    pairs = [p for s, t in base for p in ((s, t), (t, s))] + shuffled
    want = _bits([merge_join(index.store, s, t)[0] for s, t in pairs])

    point = DistanceOracle(index)
    assert _bits([point.distance(s, t) for s, t in pairs]) == want
    # One LRU pass looks every pair up before it inserts the misses, so
    # hits come from earlier calls: feed the pairs 1, 2, 3, 1, ... at a
    # time, and each pair's reverse is cached by the call before.
    small = DistanceOracle(index, cache_size=2)
    got, i = [], 0
    for size in itertools.cycle((1, 2, 3)):
        if i >= len(pairs):
            break
        got += small.batch(pairs[i : i + size])
        i += size
    assert _bits(got) == want
    assert 0 < small.stats.cache_hits < len(pairs)
    keys = {(min(p), max(p)) for p in pairs}
    assert small.cache_info() == (min(2, len(keys)), 2)
    # The server's batch op, without and with a deadline (which serves
    # the first pair alone, then chunks).
    for server in (None, SimpleNamespace(slow_query_seconds=60.0)):
        reply = _dispatch(
            DistanceOracle(index, cache_size=2),
            {"op": "batch", "pairs": [list(p) for p in pairs]},
            server,
        )
        assert reply["ok"] is True
        got = [math.inf if d == "inf" else d for d in reply["distances"]]
        assert _bits(got) == want


# ----------------------------------------------------------------------
# The label arena against a dict-of-lists model
# ----------------------------------------------------------------------
_ARENA_N = 6
_ENTRY = st.tuples(
    st.integers(0, _ARENA_N - 1),
    st.integers(0, _ARENA_N - 1),
    st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.5]),
)
_BATCH = st.lists(_ENTRY, max_size=10)
_STEP = st.one_of(
    st.tuples(st.just("add"), _ENTRY),
    st.tuples(st.just("add_delta"), _BATCH),
    st.tuples(st.just("add_root"), st.integers(0, _ARENA_N - 1), st.sets(
        st.integers(0, _ARENA_N - 1), max_size=_ARENA_N
    )),
    st.tuples(st.just("extend_from_arrays"), _BATCH),
    st.tuples(st.just("merge_from"), _BATCH, st.booleans()),
    st.tuples(st.just("copy")),
    st.tuples(st.just("thaw")),
    st.tuples(st.just("finalize")),
)


def _finalized(model):
    """The model's labels sorted by hub, duplicates at their min distance."""
    out = []
    for run in model:
        best = {}
        for h, d in run:
            best[h] = min(d, best.get(h, d))
        out.append(sorted(best.items()))
    return out


def _assert_same(store, model):
    for v, run in enumerate(model):
        assert [int(h) for h in store.hubs_of(v)] == [h for h, _ in run]
        assert [float(d) for d in store.dists_of(v)] == [d for _, d in run]
    assert store.label_sizes() == [len(run) for run in model]
    assert store.total_entries == sum(len(run) for run in model)


@given(st.lists(_STEP, max_size=25))
@settings(max_examples=150, deadline=None)
def test_label_arena_matches_list_model(steps):
    """Every mutator, copy, thaw and finalize on the arena store reads
    back like per-vertex lists, with an arena small enough that runs
    move and the arena compacts."""
    from repro.core import labels

    with mock.patch.object(labels, "_RUN_MIN", 1), mock.patch.object(
        labels, "_ARENA_MIN", 1
    ):
        store = LabelStore(_ARENA_N)
        model = [[] for _ in range(_ARENA_N)]
        kept = []  # (store, model) pairs left behind by copy
        for op, *args in steps:
            if op == "add":
                v, h, d = args[0]
                store.add(v, h, d)
                model[v].append((h, d))
            elif op in ("add_delta", "extend_from_arrays"):
                batch = args[0]
                if op == "add_delta":
                    assert store.add_delta(batch) == len(batch)
                else:
                    cols = list(zip(*batch)) or [(), (), ()]
                    assert store.extend_from_arrays(
                        np.array(cols[0], dtype=np.int64),
                        np.array(cols[1], dtype=np.int64),
                        np.array(cols[2], dtype=np.float64),
                    ) == len(batch)
                for v, h, d in batch:
                    model[v].append((h, d))
            elif op == "add_root":
                h, verts = args
                verts = sorted(verts)
                dists = [float(v) / 2 for v in verts]
                assert store.add_root(h, Delta(verts, dists)) == len(verts)
                for v, d in zip(verts, dists):
                    model[v].append((h, d))
            elif op == "merge_from":
                batch, canonical = args
                if canonical:
                    runs = [[] for _ in range(_ARENA_N)]
                    for v, h, d in batch:
                        runs[v].append((h, d))
                    batch = [
                        (v, h, d)
                        for v, run in enumerate(_finalized(runs))
                        for h, d in run
                    ]
                added = 0
                for v, h, d in batch:
                    if h not in {h_ for h_, _ in model[v]}:
                        model[v].append((h, d))
                        added += 1
                assert store.merge_from(batch) == added
            elif op == "copy":
                kept.append((store, [list(run) for run in model]))
                store = store.copy()
            elif op == "thaw":
                store = LabelStore.from_arrays(**store.to_arrays())
                model = _finalized(model)
            else:
                store.finalize()
                model = _finalized(model)
            _assert_same(store, model)
        for old, old_model in kept:
            _assert_same(old, old_model)
        store.finalize()
        model = _finalized(model)
        indptr, hubs, dists = store.finalized_arrays()
        assert indptr.tolist() == [0] + np.cumsum(
            [len(run) for run in model]
        ).tolist()
        assert hubs.tolist() == [h for run in model for h, _ in run]
        assert dists.tolist() == [d for run in model for _, d in run]
        assert hubs.dtype == np.int64 and dists.dtype == np.float64
