"""Tests for the race sanitizer's facade and integrations: the no-op
hooks, the label-store proxy, sanitized builds, the stress driver and
the environment switch (the happens-before rules themselves live in
``test_check_vectorclock.py``)."""

import threading

import pytest

from repro.check import hooks
from repro.check.vectorclock import (
    ENV_FLAG,
    VCTrackedLock,
    VectorClockSanitizer,
    enable_from_env,
    get_vc_sanitizer,
    stress_threads,
)
from repro.core.labels import LabelStore
from repro.errors import CheckError


@pytest.fixture(autouse=True)
def _isolate_sanitizer():
    """Detach any ambient sanitizer (e.g. PARAPLL_SANITIZE=vc in CI).

    These tests install their own engines — including ones that must
    observe deliberate races — which would otherwise collide with or
    pollute the session-wide sanitizer.
    """
    previous = hooks.get_active()
    hooks.set_active(None)
    yield
    hooks.set_active(previous)


@pytest.fixture
def sanitizer():
    """An installed sanitizer, uninstalled again afterwards."""
    san = VectorClockSanitizer()
    san.install()
    yield san
    if hooks.get_active() is san:
        san.uninstall()


def _run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestHooksInactive:
    def test_make_lock_is_plain_lock(self):
        lock = hooks.make_lock("test")
        assert not isinstance(lock, VCTrackedLock)
        with lock:
            pass

    def test_wrap_store_is_identity(self):
        store = LabelStore(4)
        assert hooks.wrap_store(store) is store
        assert hooks.unwrap_store(store) is store

    def test_access_is_noop(self):
        hooks.access("anywhere", write=True)


class TestRaceDetection:
    def test_unlocked_concurrent_writes_are_reported(self, sanitizer):
        """The deliberate-race case: two threads, no lock, one store."""
        store = sanitizer.wrap_store(LabelStore(8))

        def hammer(base):
            for i in range(300):
                store.add(i % 8, base + i, float(i))

        _run_threads(lambda: hammer(0), lambda: hammer(10_000))
        assert not sanitizer.ok
        (report,) = sanitizer.reports
        assert "LabelStore" in report.location
        # Both stacks are captured for the postmortem.
        assert report.first.stack and report.second.stack
        assert "hammer" in report.second.render()

    def test_locked_writes_are_clean(self, sanitizer):
        store = sanitizer.wrap_store(LabelStore(8))
        lock = sanitizer.make_lock("commit")

        def hammer(base):
            for i in range(300):
                with lock:
                    store.add(i % 8, base + i, float(i))

        _run_threads(lambda: hammer(0), lambda: hammer(10_000))
        assert sanitizer.ok, sanitizer.render()

    def test_inconsistent_locks_are_reported(self, sanitizer):
        """Each thread locks — but different locks: still a race."""
        store = sanitizer.wrap_store(LabelStore(8))
        lock_a = sanitizer.make_lock("a")
        lock_b = sanitizer.make_lock("b")

        def hammer(lock, base):
            for i in range(300):
                with lock:
                    store.add(i % 8, base + i, float(i))

        _run_threads(
            lambda: hammer(lock_a, 0), lambda: hammer(lock_b, 10_000)
        )
        assert not sanitizer.ok

    def test_single_thread_never_races(self, sanitizer):
        store = sanitizer.wrap_store(LabelStore(4))
        for i in range(100):
            store.add(i % 4, i, float(i))
        assert sanitizer.ok

    def test_each_location_reported_once(self, sanitizer):
        store = sanitizer.wrap_store(LabelStore(8))

        def hammer(base):
            for i in range(300):
                store.add(i % 8, base + i, float(i))

        _run_threads(lambda: hammer(0), lambda: hammer(10_000))
        _run_threads(lambda: hammer(20_000), lambda: hammer(30_000))
        assert len(sanitizer.reports) == 1


class TestWrappedStore:
    def test_wrapper_delegates_reads_and_writes(self, sanitizer):
        inner = LabelStore(4)
        store = sanitizer.wrap_store(inner)
        store.add(0, 1, 2.5)
        assert store.hubs_of(0) == [1]
        assert store.dists_of(0) == [2.5]
        assert store.n == 4
        assert hooks.unwrap_store(store) is inner

    def test_threaded_build_results_unaffected(self, sanitizer):
        """Sanitized and plain builds produce identical finalized labels."""
        from repro.baselines.dijkstra import dijkstra_sssp
        from repro.core.paths import isclose_distance
        from repro.generators.random_graphs import gnm_random_graph
        from repro.parallel.threads import build_parallel_threads

        graph = gnm_random_graph(40, 100, seed=7)
        index = build_parallel_threads(graph, 3, policy="dynamic")
        truth = dijkstra_sssp(graph, 0)
        for t in range(graph.num_vertices):
            assert isclose_distance(index.distance(0, t), truth[t])
        assert sanitizer.ok, sanitizer.render()


class TestClusterPath:
    """The simulated-cluster thread backend under the sanitizer."""

    def test_cluster_threads_run_clean(self, sanitizer):
        from repro.cluster.runner import run_cluster_threads
        from repro.generators.random_graphs import gnm_random_graph

        graph = gnm_random_graph(30, 80, seed=3)
        index = run_cluster_threads(graph, 3, syncs=2)
        assert index.avg_label_size() > 0
        assert sanitizer.ok, sanitizer.render()

    def test_seeded_unlocked_write_is_caught(self, sanitizer):
        """A deliberate unlocked shared write alongside the (clean)
        cluster build must still surface — the ThreadComm sync traffic
        must not wash the race out."""
        from repro.cluster.runner import run_cluster_threads
        from repro.generators.random_graphs import gnm_random_graph

        graph = gnm_random_graph(30, 80, seed=3)
        both = threading.Barrier(2)

        def rogue():
            both.wait()
            for _ in range(5):
                hooks.access("cluster.seeded-defect", write=True)

        rogues = [
            threading.Thread(target=rogue, name=f"rogue-{i}")
            for i in range(2)
        ]
        for t in rogues:
            t.start()
        run_cluster_threads(graph, 3, syncs=2)
        for t in rogues:
            t.join()
        assert not sanitizer.ok
        assert any(
            "cluster.seeded-defect" in r.location
            for r in sanitizer.reports
        )


class TestStress:
    def test_stress_threads_is_race_free(self):
        result = stress_threads(num_threads=4, repeats=1, n=80, m=240)
        assert result.builds == 2  # one per policy
        assert isinstance(result.sanitizer, VectorClockSanitizer)
        assert result.sanitizer.ok, result.sanitizer.render()
        # The commit path was actually exercised under tracking.
        assert result.sanitizer.accesses_tracked > 0

    def test_stress_threads_cluster_flag(self):
        result = stress_threads(
            num_threads=2, repeats=1, n=60, m=150, cluster=True
        )
        assert result.builds == 3  # static + dynamic + cluster
        assert result.sanitizer.ok, result.sanitizer.render()

    def test_stress_accepts_a_vector_clock_engine(self):
        given = VectorClockSanitizer()
        result = stress_threads(
            num_threads=2, repeats=1, n=60, m=150, sanitizer=given,
        )
        assert result.sanitizer is given
        assert result.sanitizer.ok, result.sanitizer.render()
        assert result.sanitizer.sync_events > 0


class TestLifecycle:
    def test_install_uninstall(self):
        san = VectorClockSanitizer()
        assert get_vc_sanitizer() is None
        san.install()
        assert get_vc_sanitizer() is san
        san.uninstall()
        assert get_vc_sanitizer() is None

    def test_double_install_rejected(self, sanitizer):
        with pytest.raises(CheckError):
            VectorClockSanitizer().install()

    def test_context_manager(self):
        with VectorClockSanitizer() as san:
            assert get_vc_sanitizer() is san
        assert get_vc_sanitizer() is None

    def test_enable_from_env_falsy(self, monkeypatch):
        for value in ("", "0", "false", "no"):
            monkeypatch.setenv(ENV_FLAG, value)
            assert enable_from_env() is None

    def test_enable_from_env_truthy(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        san = enable_from_env()
        try:
            assert isinstance(san, VectorClockSanitizer)
            assert get_vc_sanitizer() is san
            assert enable_from_env() is san  # idempotent
        finally:
            san.uninstall()

    def test_tracked_lock_reentrancy_and_release(self, sanitizer):
        lock = sanitizer.make_lock("re")
        assert isinstance(lock, VCTrackedLock)
        lock.acquire()
        lock.release()
        with lock:
            sanitizer.record_access("loc", write=True)
        assert sanitizer.ok

    def test_make_lock_dedups_same_name(self, sanitizer):
        """Two instances behind one name must stay distinguishable —
        aliased names would fabricate lock-order cycles in the deadlock
        recorder."""
        a = sanitizer.make_lock("oracle._cache_lock")
        b = sanitizer.make_lock("oracle._cache_lock")
        assert a.name == "oracle._cache_lock"
        assert b.name == "oracle._cache_lock#2"
