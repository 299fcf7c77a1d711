"""Tests for the FastTrack-style vector-clock race detector."""

import threading

import pytest

from repro.check import hooks
from repro.check.corpus import run_race_corpus
from repro.core.labels import Delta
from repro.check.vectorclock import (
    ENV_FLAG,
    VCTrackedLock,
    VectorClockSanitizer,
    enable_from_env,
    get_vc_sanitizer,
)
from repro.errors import CheckError


@pytest.fixture(autouse=True)
def _isolate_sanitizer():
    previous = hooks.get_active()
    hooks.set_active(None)
    yield
    hooks.set_active(previous)


@pytest.fixture
def vc():
    san = VectorClockSanitizer()
    san.install()
    yield san
    if hooks.get_active() is san:
        san.uninstall()


def _run_named(*specs):
    """Start+join named threads; names keep idents distinguishable."""
    threads = [
        threading.Thread(target=fn, name=name) for name, fn in specs
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestHappensBefore:
    def test_unsynchronized_writes_race(self, vc):
        gate = threading.Barrier(2)

        def bump():
            gate.wait()
            vc.record_access("loc", write=True)

        _run_named(("vc-a", bump), ("vc-b", bump))
        assert not vc.ok
        (report,) = vc.reports
        assert report.location == "loc"
        assert {report.first.thread, report.second.thread} == {
            "vc-a", "vc-b",
        }

    def test_lock_protected_writes_are_ordered(self, vc):
        lock = vc.make_lock("commit")

        def bump():
            for _ in range(50):
                with lock:
                    vc.record_access("loc", write=True)

        _run_named(("vc-a", bump), ("vc-b", bump))
        assert vc.ok, vc.render()

    def test_fork_edge_orders_parent_before_child(self, vc):
        vc.record_access("loc", write=True)

        def child():
            vc.record_access("loc", write=True)

        t = threading.Thread(target=child, name="vc-child")
        hooks.fork(t.name)
        t.start()
        t.join()
        assert vc.ok, vc.render()

    def test_missing_join_edge_is_a_race(self, vc):
        done = threading.Event()

        def child():
            vc.record_access("loc", write=True)
            done.set()

        t = threading.Thread(target=child, name="vc-child")
        hooks.fork(t.name)
        t.start()
        done.wait()
        # Event ordering is real but untracked: still a race.
        vc.record_access("loc", write=False)
        t.join()
        assert not vc.ok

    def test_join_edge_orders_child_before_parent(self, vc):
        def child():
            vc.record_access("loc", write=True)

        t = threading.Thread(target=child, name="vc-child")
        hooks.fork(t.name)
        t.start()
        t.join()
        hooks.join(t.name)
        vc.record_access("loc", write=False)
        assert vc.ok, vc.render()

    def test_send_recv_token_carries_the_clock(self, vc):
        import queue

        q = queue.Queue()

        def producer():
            vc.record_access("payload", write=True)
            q.put(hooks.send("chan"))

        def consumer():
            hooks.recv("chan", q.get())
            vc.record_access("payload", write=True)

        for name, fn in (("vc-p", producer), ("vc-c", consumer)):
            t = threading.Thread(target=fn, name=name)
            hooks.fork(t.name)
            t.start()
            t.join()
            hooks.join(t.name)
        assert vc.ok, vc.render()

    def test_barrier_orders_rounds(self, vc):
        gate = threading.Barrier(2)

        def rank(write_first):
            if write_first:
                vc.record_access("slot", write=True)
            hooks.barrier("sync", "arrive")
            gate.wait()
            hooks.barrier("sync", "depart")
            if not write_first:
                vc.record_access("slot", write=False)

        _run_named(
            ("vc-r0", lambda: rank(True)), ("vc-r1", lambda: rank(False))
        )
        assert vc.ok, vc.render()

    def test_concurrent_reads_never_race(self, vc):
        gate = threading.Barrier(2)

        def reader():
            gate.wait()
            vc.record_access("loc", write=False)

        _run_named(("vc-a", reader), ("vc-b", reader))
        assert vc.ok, vc.render()

    def test_one_report_per_location(self, vc):
        gate = threading.Barrier(2)

        def bump():
            gate.wait()
            for _ in range(20):
                vc.record_access("loc", write=True)

        _run_named(("vc-a", bump), ("vc-b", bump))
        assert len(vc.reports) == 1

    def test_raise_on_race(self):
        with VectorClockSanitizer(raise_on_race=True) as vc:
            gate = threading.Barrier(2)
            boom = []

            def bump():
                gate.wait()
                try:
                    vc.record_access("loc", write=True)
                except CheckError as exc:
                    boom.append(exc)

            _run_named(("vc-a", bump), ("vc-b", bump))
            assert len(boom) == 1
            assert "RACE on loc" in str(boom[0])


class TestSequentialThreads:
    """CPython reuses a thread's ident once it exits, so threads run one
    after another must still count as distinct threads."""

    @staticmethod
    def _run_one(name, fn):
        t = threading.Thread(target=fn, name=name)
        hooks.fork(name)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        hooks.join(name)

    def test_vc_merges_each_readers_fork_edge(self, vc):
        def reader():
            vc.record_access("loc", write=False)

        for i in range(2):
            vc.record_access("loc", write=True)
            self._run_one(f"r{i}", reader)
        assert vc.ok, vc.render()


class TestCommitOnCompletion:
    """Proposition 1 as a happens-before fact (not a whitelist)."""

    def test_real_threaded_build_is_race_free(self, vc):
        from repro.generators.random_graphs import gnm_random_graph
        from repro.parallel.threads import build_parallel_threads

        graph = gnm_random_graph(40, 100, seed=7)
        for policy in ("static", "dynamic"):
            build_parallel_threads(graph, 3, policy=policy)
        assert vc.ok, vc.render()
        assert vc.accesses_tracked > 0
        assert vc.sync_events > 0  # fork/join edges were exercised


class TestWrappedStoreMutators:
    """The write-tracking proxy records a write for every method that
    changes a store's labels, including the bulk appends."""

    #: Every other public name of LabelStore.
    OTHERS = {
        "MUTATORS", "n", "arena", "hubs_of", "dists_of", "entries_of",
        "label_size", "label_sizes", "total_entries", "avg_label_size",
        "finalize", "finalized_hubs", "finalized_dists", "finalized_arrays",
        "memory_breakdown", "query_context", "copy", "to_arrays", "from_arrays",
        "from_entries",
    }
    CALLS = {
        "add": lambda s: s.add(0, 1, 2.0),
        "add_delta": lambda s: s.add_delta([(0, 1, 2.0), (0, 2, 3.0)]),
        "add_root": lambda s: s.add_root(1, Delta([0, 2], [1.0, 2.0])),
        "extend_from_arrays": lambda s: s.extend_from_arrays(
            [0, 0], [1, 2], [2.0, 3.0]
        ),
        "merge_from": lambda s: s.merge_from([(0, 1, 2.0)]),
    }

    def test_every_public_method_is_classified(self):
        from repro.core.labels import LabelStore

        public = {name for name in dir(LabelStore) if not name.startswith("_")}
        assert set(LabelStore.MUTATORS) == set(self.CALLS)
        assert public == self.OTHERS | set(self.CALLS)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_each_mutator_records_a_write(self, vc, name):
        from repro.core.labels import LabelStore

        store = vc.wrap_store(LabelStore(4))
        before = vc.accesses_tracked
        self.CALLS[name](store)
        assert vc.accesses_tracked == before + 1
        assert hooks.unwrap_store(store).total_entries > 0

    def test_unsynchronized_bulk_appends_race(self, vc):
        from repro.core.labels import LabelStore

        store = vc.wrap_store(LabelStore(4))
        gate = threading.Barrier(2)

        def sync(hub):
            gate.wait()
            store.extend_from_arrays([0, 1], [hub, hub], [1.0, 2.0])

        _run_named(("vc-a", lambda: sync(0)), ("vc-b", lambda: sync(1)))
        assert not vc.ok
        assert vc.reports[0].location.endswith(".labels")


class TestThreadCommAllgather:
    """The allgather read-out is ordered after the slot writes by the
    fill barrier — a checked edge, not an exemption."""

    @staticmethod
    def _allgather_3_ranks():
        from repro.cluster.threadcomm import ThreadComm, run_ranks

        comm = ThreadComm(3, timeout=10.0)
        results = run_ranks(comm, lambda rank, c: c.allgather(rank, rank))
        assert results == [[0, 1, 2]] * 3

    def test_dropped_barrier_edges_race_on_the_slots(self, vc, monkeypatch):
        monkeypatch.setattr(hooks, "barrier", lambda name, phase: None)
        self._allgather_3_ranks()
        assert any(
            r.location.endswith("._gather_slots") and not r.second.write
            for r in vc.reports
        ), vc.render()

    def test_barrier_edges_keep_the_slots_race_free(self, vc):
        from repro.cluster.runner import run_cluster_threads
        from repro.generators.random_graphs import gnm_random_graph

        self._allgather_3_ranks()
        run_cluster_threads(gnm_random_graph(30, 80, seed=3), 3, syncs=2)
        assert vc.ok, vc.render()


class TestCorpus:
    def test_race_corpus_detects_all_seeded_defects(self):
        cases = run_race_corpus("tests/corpus/races")
        assert len(cases) >= 4
        failed = [c for c in cases if not c.ok]
        assert not failed, "\n".join(
            f"{c.path}: expected {c.expect}, got {c.got}\n{c.detail}"
            for c in failed
        )
        # Both polarities are actually present in the corpus.
        assert any(c.expect == 0 for c in cases)
        assert any(c.expect > 0 for c in cases)


class TestLifecycle:
    def test_install_uninstall_and_getter(self):
        san = VectorClockSanitizer()
        assert get_vc_sanitizer() is None
        san.install()
        assert get_vc_sanitizer() is san
        san.uninstall()
        assert get_vc_sanitizer() is None

    def test_double_install_rejected(self, vc):
        with pytest.raises(CheckError):
            VectorClockSanitizer().install()

    def test_enable_from_env_vc(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "vc")
        san = enable_from_env()
        try:
            assert isinstance(san, VectorClockSanitizer)
            assert enable_from_env() is san  # idempotent
        finally:
            san.uninstall()

    def test_make_lock_dedups_names(self, vc):
        a = vc.make_lock("commit")
        b = vc.make_lock("commit")
        assert isinstance(a, VCTrackedLock)
        assert a.name == "commit"
        assert b.name == "commit#2"

    def test_wrap_store_tracks_writes(self, vc):
        from repro.core.labels import LabelStore

        store = vc.wrap_store(LabelStore(4))
        store.add(0, 1, 2.0)
        assert vc.accesses_tracked > 0
        assert hooks.unwrap_store(store).hubs_of(0) == [1]

    def test_render_mentions_sync_events(self, vc):
        hooks.fork("nobody")
        assert "sync events" in vc.render()
        assert "0 race(s)" in vc.render()
