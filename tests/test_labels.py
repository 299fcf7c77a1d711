"""Tests for the LabelStore."""

import sys
import threading

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra_sssp
from repro.core import labels, native
from repro.core.labels import Delta, LabelStore
from repro.errors import GraphError, NotIndexedError
from repro.generators.random_graphs import gnm_random_graph


class TestMutation:
    def test_starts_empty(self):
        store = LabelStore(4)
        assert store.total_entries == 0
        assert store.label_sizes() == [0, 0, 0, 0]
        assert store.avg_label_size == 0.0

    def test_add(self):
        store = LabelStore(3)
        store.add(1, 0, 2.5)
        assert store.label_size(1) == 1
        assert store.entries_of(1) == [(0, 2.5)]
        assert store.hubs_of(1) == [0]
        assert store.dists_of(1) == [2.5]

    def test_add_delta(self):
        store = LabelStore(3)
        n = store.add_delta([(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)])
        assert n == 3
        assert store.total_entries == 3
        assert store.label_size(1) == 2

    def test_avg_label_size(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        store.add(0, 1, 1.0)
        assert store.avg_label_size == 1.0

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            LabelStore(-1)

    def test_empty_store(self):
        store = LabelStore(0)
        assert store.avg_label_size == 0.0
        store.finalize()
        assert store.to_arrays()["indptr"].tolist() == [0]


class TestFinalize:
    def test_requires_finalize(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        with pytest.raises(NotIndexedError):
            store.finalized_hubs(0)
        with pytest.raises(NotIndexedError):
            store.finalized_dists(0)

    def test_sorts_by_hub(self):
        store = LabelStore(1)
        store.add(0, 3, 1.0)
        store.add(0, 1, 2.0)
        store.add(0, 2, 3.0)
        store.finalize()
        assert store.finalized_hubs(0).tolist() == [1, 2, 3]
        assert store.finalized_dists(0).tolist() == [2.0, 3.0, 1.0]

    def test_dedupes_keeping_min_distance(self):
        store = LabelStore(1)
        store.add(0, 5, 9.0)
        store.add(0, 5, 4.0)
        store.finalize()
        assert store.finalized_hubs(0).tolist() == [5]
        assert store.finalized_dists(0).tolist() == [4.0]

    def test_finalize_idempotent(self):
        store = LabelStore(1)
        store.add(0, 0, 1.0)
        store.finalize()
        first = store.finalized_arrays()
        store.finalize()
        second = store.finalized_arrays()
        for a, b in zip(first, second):
            assert a is b

    def test_mutation_invalidates_finalize(self):
        store = LabelStore(1)
        store.add(0, 0, 1.0)
        store.finalize()
        store.add(0, 1, 2.0)
        store.finalize()
        assert store.finalized_hubs(0).tolist() == [0, 1]

    def test_write_order_dists_before_hubs(self):
        """The lock-free-reader invariant: len(dists) >= len(hubs)."""
        store = LabelStore(1)
        # add() appends dist first; simulate interleaving by checking
        # the internal lists after each add.
        for i in range(5):
            store.add(0, i, float(i))
            assert len(store.dists_of(0)) >= len(store.hubs_of(0))


class TestMergeCopy:
    def test_copy_independent(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        b = a.copy()
        b.add(0, 1, 2.0)
        assert a.label_size(0) == 1
        assert b.label_size(0) == 2

    def test_merge_from_unions(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        added = a.merge_from([(0, 1, 2.0), (1, 0, 3.0)])
        assert added == 2
        assert a.total_entries == 3

    def test_merge_skips_duplicates(self):
        a = LabelStore(1)
        a.add(0, 0, 1.0)
        assert a.merge_from([(0, 0, 1.0), (0, 1, 2.0), (0, 1, 5.0)]) == 1
        assert a.entries_of(0) == [(0, 1.0), (1, 2.0)]

    def test_merge_size_mismatch(self):
        # An entry for a vertex beyond the store's size.
        with pytest.raises(GraphError, match="vertex"):
            LabelStore(1).merge_from([(1, 0, 1.0)])


class TestSerialisation:
    def test_roundtrip(self):
        store = LabelStore(3)
        store.add(0, 0, 1.0)
        store.add(2, 0, 2.0)
        store.add(2, 1, 3.5)
        arrays = store.to_arrays()
        back = LabelStore.from_arrays(**arrays)
        assert back == store

    def test_roundtrip_applies_dedupe(self):
        store = LabelStore(1)
        store.add(0, 0, 5.0)
        store.add(0, 0, 3.0)
        back = LabelStore.from_arrays(**store.to_arrays())
        assert back.entries_of(0) == [(0, 3.0)]

    def test_from_arrays_validates_indptr(self):
        with pytest.raises(GraphError):
            LabelStore.from_arrays([0, 5], [0], [1.0])

    def test_from_arrays_validates_lengths(self):
        with pytest.raises(GraphError):
            LabelStore.from_arrays([0, 1], [0], [1.0, 2.0])

    def test_from_arrays_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError, match="vertex 1"):
            LabelStore.from_arrays([0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_from_arrays_rejects_out_of_range_hub(self):
        with pytest.raises(GraphError, match=r"L\(1\)"):
            LabelStore.from_arrays([0, 1, 2], [0, 7], [1.0, 2.0])

    def test_from_arrays_rejects_unsorted_hubs(self):
        with pytest.raises(GraphError, match="vertex 0.*unsorted"):
            LabelStore.from_arrays([0, 2, 2], [1, 0], [1.0, 2.0])

    def test_from_arrays_rejects_duplicate_hubs(self):
        with pytest.raises(GraphError, match="vertex 2.*duplicated"):
            LabelStore.from_arrays(
                [0, 1, 1, 3], [0, 1, 1], [1.0, 2.0, 2.0]
            )

    def test_from_arrays_validate_false_skips_structure_checks(self):
        store = LabelStore.from_arrays(
            [0, 2, 2], [1, 0], [1.0, 2.0], validate=False
        )
        assert store.finalized_hubs(0).tolist() == [1, 0]

    def test_to_arrays_shapes(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        arrays = store.to_arrays()
        assert arrays["indptr"].tolist() == [0, 1, 1]
        assert arrays["hubs"].dtype == np.int64
        assert arrays["dists"].dtype == np.float64

    def test_to_arrays_is_zero_copy(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        store.add(1, 0, 2.0)
        indptr, hubs, dists = store.finalized_arrays()
        arrays = store.to_arrays()
        assert arrays["indptr"] is indptr
        assert arrays["hubs"] is hubs
        assert arrays["dists"] is dists


class TestFrozenStore:
    """Stores adopted via from_arrays have no arena until thawed."""

    def _frozen(self):
        store = LabelStore(3)
        store.add(0, 0, 1.0)
        store.add(2, 0, 2.0)
        store.add(2, 1, 3.5)
        return LabelStore.from_arrays(**store.to_arrays())

    def test_reads_work_frozen(self):
        store = self._frozen()
        assert store.total_entries == 3
        assert store.label_sizes() == [1, 0, 2]
        assert store.label_size(2) == 2
        assert list(store.hubs_of(2)) == [0, 1]
        assert list(store.dists_of(2)) == [2.0, 3.5]
        assert store.entries_of(2) == [(0, 2.0), (1, 3.5)]

    def test_finalized_slices_are_views(self):
        store = self._frozen()
        hubs = store.finalized_hubs(2)
        assert hubs.base is store.finalized_arrays()[1]

    def test_mutation_thaws(self):
        store = self._frozen()
        store.add(1, 0, 4.0)
        assert store.label_size(1) == 1
        store.finalize()
        assert store.finalized_hubs(1).tolist() == [0]
        assert store.finalized_hubs(2).tolist() == [0, 1]

    def test_copy_thaws(self):
        store = self._frozen()
        clone = store.copy()
        clone.add(0, 1, 9.0)
        assert store.label_size(0) == 1
        assert clone.label_size(0) == 2


class TestEquality:
    def test_equal_ignores_order(self):
        a = LabelStore(1)
        a.add(0, 0, 1.0)
        a.add(0, 1, 2.0)
        b = LabelStore(1)
        b.add(0, 1, 2.0)
        b.add(0, 0, 1.0)
        assert a == b

    def test_unequal_distance(self):
        a = LabelStore(1)
        a.add(0, 0, 1.0)
        b = LabelStore(1)
        b.add(0, 0, 2.0)
        assert a != b

    def test_unequal_size(self):
        assert LabelStore(1) != LabelStore(2)

    def test_equal_with_duplicate_hubs_reduced_by_min(self):
        # Delayed-sync duplicates: (hub 2, 3.0) then (hub 2, 5.0).  The
        # semantic label is {2: 3.0}; a naive dict(zip(...)) would keep
        # the *last* distance (5.0) and wrongly report inequality.
        a = LabelStore(3)
        a.add(0, 2, 3.0)
        a.add(0, 2, 5.0)
        b = LabelStore(3)
        b.add(0, 2, 3.0)
        assert a == b

    def test_duplicate_hubs_still_unequal_when_min_differs(self):
        a = LabelStore(3)
        a.add(0, 2, 3.0)
        a.add(0, 2, 5.0)
        b = LabelStore(3)
        b.add(0, 2, 5.0)
        assert a != b

    def test_frozen_equals_mutable(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        a.add(1, 1, 2.0)
        frozen = LabelStore.from_arrays(**a.to_arrays())
        assert frozen == a

    def test_other_type(self):
        assert LabelStore(1).__eq__("x") is NotImplemented


class TestTornAppendFinalize:
    """Regression: finalize during a concurrent lock-free append.

    A writer stores an entry in its run's next free arena slot before it
    publishes the run's new ``size``.  A finalize landing in between
    must take the published prefix only, and never tear the in-flight
    entry into the output.
    """

    def test_torn_append_commits_prefix_only(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        store.add(1, 1, 2.0)
        off, size, ah, ad, cap = store.arena()
        slot = int(off[0] + size[0])
        assert size[0] < cap[0]
        ah[slot] = 2
        ad[slot] = 9.0
        store.finalize()
        indptr, hubs, dists = store.finalized_arrays()
        assert indptr.tolist() == [0, 1, 2]
        assert hubs.tolist() == [0, 1]
        assert dists.tolist() == [1.0, 2.0]


class TestExtendFromArrays:
    def test_bulk_append_matches_add_delta(self):
        a = LabelStore(4)
        a.add_delta([(0, 1, 1.5), (2, 0, 2.5), (0, 3, 3.5)])
        b = LabelStore(4)
        b.extend_from_arrays(
            np.array([0, 2, 0], dtype=np.int64),
            np.array([1, 0, 3], dtype=np.int64),
            np.array([1.5, 2.5, 3.5]),
        )
        assert b == a
        assert b.total_entries == 3

    def test_thaws_frozen_store(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        frozen = LabelStore.from_arrays(**a.to_arrays())
        assert frozen.extend_from_arrays([1], [1], [2.0]) == 1
        assert frozen.label_size(1) == 1


@pytest.fixture
def tiny_arena(monkeypatch):
    """Runs start with room for one entry and the arena with one slot,
    so appends move runs and compact the arena early and often."""
    monkeypatch.setattr(labels, "_RUN_MIN", 1)
    monkeypatch.setattr(labels, "_ARENA_MIN", 1)


class TestArena:
    def test_full_run_moves_then_full_arena_compacts(self, monkeypatch):
        monkeypatch.setattr(labels, "_RUN_MIN", 1)
        monkeypatch.setattr(labels, "_ARENA_MIN", 4)
        store = LabelStore(2)
        store.add(0, 0, 0.0)
        store.add(1, 0, 1.0)
        arena = store.arena()
        store.add(0, 1, 2.0)
        # Run 0 was full: it moved to the arena's end, in place.
        assert store.arena() is arena
        assert arena[0].tolist() == [2, 1] and arena[4].tolist() == [2, 1]
        store.add(0, 2, 3.0)
        # No room at the end: fresh arrays, runs back to back, the run
        # left behind at slot 0 dropped.
        off, size, ah, _ad, cap = store.arena()
        assert off.tolist() == [0, 4] and cap.tolist() == [4, 1]
        assert size.tolist() == [3, 1] and len(ah) == 10
        assert store.hubs_of(0) == [0, 1, 2] and store.hubs_of(1) == [0]
        # A reader still holding the old tuple sees its labels as they
        # were published, never a mix of the two arenas.
        old_off, old_size, old_ah, _, _ = arena
        assert old_size.tolist() == [2, 1]
        assert old_ah[old_off[0]:old_off[0] + old_size[0]].tolist() == [0, 1]

    def test_thaw_keeps_the_csr_arrays_untouched(self):
        store = LabelStore(2)
        store.add(0, 1, 1.0)
        frozen = LabelStore.from_arrays(**store.to_arrays())
        indptr, hubs, dists = frozen.finalized_arrays()
        copies = indptr.copy(), hubs.copy(), dists.copy()
        frozen.add(0, 0, 5.0)
        frozen.add(1, 1, 2.0)
        for array, before in zip((indptr, hubs, dists), copies):
            np.testing.assert_array_equal(array, before)
        assert frozen.hubs_of(0) == [1, 0]

    @pytest.mark.parametrize(
        "entry, why",
        [
            ((4, 0, 1.0), "vertex is not"),
            ((-1, 0, 1.0), "vertex is not"),
            ((0, 2**31, 1.0), "int32"),
            ((0, 1.5, 1.0), "int32"),
            ((0, 0, "far"), "not a number"),
            ((0, 0, float("nan")), "not a number"),
        ],
    )
    def test_bad_entries_rejected_by_every_mutator(self, entry, why):
        v, h, d = entry
        calls = [
            lambda s: s.add(v, h, d),
            lambda s: s.add_delta([(0, 0, 1.0), entry]),
            lambda s: s.extend_from_arrays([0, v], [0, h], [1.0, d]),
        ]
        for call in calls:
            store = LabelStore(4)
            with pytest.raises(GraphError, match=why):
                call(store)
            assert store.total_entries == 0


class TestFinalizeFastPath:
    """``finalize`` copies strictly increasing runs out as they are and
    sends any other store through the global sort; both give the same
    arrays."""

    @staticmethod
    def _captured(build):
        """The unfinalized store a build finalizes, copied."""
        captured = []
        real = LabelStore.finalize

        def capture(self):
            if self.arena() is not None:
                captured.append(self.copy())
            real(self)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(LabelStore, "finalize", capture)
            build()
        return captured[0]

    @staticmethod
    def _both_paths(store, monkeypatch):
        sorts = []
        real = labels._sort_dedup_entries

        def spy(*args):
            sorts.append(1)
            return real(*args)

        monkeypatch.setattr(labels, "_sort_dedup_entries", spy)
        fast = labels._sort_dedup_flat(store.n, store.arena())
        sizes, hubs, dists = labels._gather(store.arena())
        owner = np.repeat(np.arange(store.n, dtype=np.int64), sizes)
        full = real(store.n, owner, hubs.astype(np.int64), dists)
        for a, b in zip(fast, full):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        return bool(sorts)

    def test_serial_store_skips_the_sort(self, monkeypatch):
        from repro.core.serial import build_serial

        graph = gnm_random_graph(60, 180, seed=4)
        store = self._captured(lambda: build_serial(graph))
        assert not self._both_paths(store, monkeypatch)

    def test_threads_store_matches_the_sort(self, monkeypatch):
        from repro.parallel.threads import build_parallel_threads

        graph = gnm_random_graph(60, 180, seed=4)
        store = self._captured(
            lambda: build_parallel_threads(graph, 4, policy="static")
        )
        # Workers commit roots out of rank order, so some run is not
        # increasing and the sort runs.
        assert self._both_paths(store, monkeypatch)

    @pytest.mark.parametrize(
        "entries",
        [[(0, 2, 1.0), (0, 1, 2.0)], [(0, 1, 5.0), (0, 1, 3.0)]],
        ids=["unsorted", "duplicated"],
    )
    def test_other_runs_take_the_sort(self, monkeypatch, entries):
        store = LabelStore(2)
        store.add_delta(entries)
        assert self._both_paths(store, monkeypatch)


class TestConcurrentArena:
    def test_threads_build_with_compaction_is_exact(self, tiny_arena):
        """Four threads, more than the cores, share one store whose
        runs move and whose arena compacts while other threads search
        it; a lost or torn entry would show as a wrong distance."""
        from repro.parallel.threads import build_parallel_threads

        compactions = []
        real = LabelStore._compact

        def counting(self, *args):
            compactions.append(1)
            return real(self, *args)

        graph = gnm_random_graph(200, 700, seed=11)
        built = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(LabelStore, "_compact", counting)
                worker = threading.Thread(
                    target=lambda: built.append(
                        build_parallel_threads(graph, 4, policy="dynamic")
                    ),
                    daemon=True,
                )
                worker.start()
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and built
        assert len(compactions) > 1
        index = built[0]
        for s in range(graph.num_vertices):
            truth = dijkstra_sssp(graph, s)
            for t in range(graph.num_vertices):
                assert index.distance(s, t) == pytest.approx(truth[t])


@pytest.fixture(params=["compiled", "numpy"])
def append_path(request, monkeypatch):
    """Run a test once with ``add_root`` in C and once through numpy."""
    if request.param == "compiled":
        if native.load() is None:
            pytest.skip("no C compiler: the compiled append is unavailable")
    else:
        monkeypatch.setattr(native, "load", lambda: None)
    return request.param


class TestDelta:
    def test_arrays_pairs_and_equality(self):
        delta = Delta([3, 1], [0.0, 2.5])
        assert delta.verts.dtype == np.int64 and delta.dists.dtype == np.float64
        assert not delta.verts.flags.writeable
        assert not delta.dists.flags.writeable
        assert len(delta) == 2 and delta[1] == (1, 2.5)
        assert list(delta) == [(3, 0.0), (1, 2.5)]
        assert delta == [(3, 0.0), (1, 2.5)] == Delta([3, 1], [0, 2.5])
        assert delta != Delta([3, 1], [0.0, 2.0])
        assert Delta([], []) == []

    @pytest.mark.parametrize(
        "verts, dists",
        [([0, 1], [1.0]), ([0.5], [1.0]), ([0], ["far"]), ([0], [float("nan")])],
    )
    def test_malformed_rejected(self, verts, dists):
        with pytest.raises(GraphError):
            Delta(verts, dists)


class TestAddRoot:
    def test_tiny_arena_matches_numpy_append(self, monkeypatch):
        """A serial build's deltas into a store with a tiny arena: the
        compiled append moves runs itself and comes back only to
        compact, and the finalized arrays are byte for byte those of the
        numpy append."""
        if native.load() is None:
            pytest.skip("no C compiler: the compiled append is unavailable")
        from repro.core.pruned_dijkstra import PrunedDijkstra
        from repro.graph.order import by_degree

        monkeypatch.setattr(labels, "_ARENA_MIN", 8)
        graph = gnm_random_graph(120, 400, seed=5)
        engine = PrunedDijkstra(graph, by_degree(graph))
        compiled = LabelStore(graph.num_vertices)
        plain = LabelStore(graph.num_vertices)
        moves = compactions = 0
        for root in engine.order.tolist():
            delta = engine.run(root, compiled)
            arena = compiled.arena()
            off = arena[0].copy()
            engine.commit(root, delta, compiled)
            if compiled.arena() is not arena:
                compactions += 1
            elif (arena[0] != off).any():
                moves += 1
            with monkeypatch.context() as m:
                m.setattr(native, "load", lambda: None)
                engine.commit(root, delta, plain)
        assert moves > 10 and compactions > 3
        compiled.finalize()
        plain.finalize()
        for a, b in zip(compiled.finalized_arrays(), plain.finalized_arrays()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "hub, verts, why",
        [
            (0, [1, 4], "vertex is not"),
            (0, [-1], "vertex is not"),
            (2**31, [1], "int32"),
            (-(2**31) - 1, [1], "int32"),
            (1.5, [1], "int32"),
            (2**63, [1], "int32"),
        ],
    )
    def test_bad_entry_leaves_store_unchanged(self, append_path, hub, verts, why):
        store = LabelStore(4)
        store.add_root(0, Delta([0, 1, 2], [0.0, 1.0, 2.0]))
        before = [a.copy() for a in store.arena()]
        delta = Delta(verts, [1.0] * len(verts))
        with pytest.raises(GraphError, match=why):
            store.add_root(hub, delta)
        for a, b in zip(store.arena(), before):
            np.testing.assert_array_equal(a, b)
        assert store.entries_of(1) == [(0, 1.0)]

    def test_appends_in_order_and_thaws(self, append_path):
        store = LabelStore(3)
        assert store.add_root(0, Delta([2, 0], [1.0, 2.0])) == 2
        assert store.add_root(1, Delta([], [])) == 0
        frozen = LabelStore.from_arrays(**store.to_arrays())
        assert frozen.add_root(1, Delta([0], [3.0])) == 1
        assert frozen.entries_of(0) == [(0, 2.0), (1, 3.0)]
        assert frozen.entries_of(2) == [(0, 1.0)]
