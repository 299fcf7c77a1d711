"""Tests for the thread-role dataflow lints (PC007–PC011)."""

import textwrap

import pytest

from repro.check.corpus import run_dataflow_corpus
from repro.check.dataflow import CallGraph, analyze_paths
from repro.check.lint import FileContext


def _analyze(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return analyze_paths([str(path)])


def _rules(report):
    return sorted({v.rule for v in report.violations})


class TestRoleInference:
    def _graph(self, source):
        graph = CallGraph()
        graph.add_file(FileContext("snippet.py", textwrap.dedent(source)))
        graph.infer_roles()
        return {fn.simple: fn.roles for fn in graph.functions}

    def test_worker_seeds_by_name_and_thread_target(self):
        roles = self._graph(
            """
            import threading

            def worker(store):
                pass

            def crunch(store):
                pass

            def launch(store):
                threading.Thread(target=crunch).start()
            """
        )
        assert "worker" in roles["worker"]
        assert "worker" in roles["crunch"]
        assert "worker" not in roles["launch"]

    def test_roles_propagate_to_callees(self):
        roles = self._graph(
            """
            def commit_shared(store):
                pass

            def worker(store):
                commit_shared(store)
            """
        )
        assert "worker" in roles["commit_shared"]

    def test_sim_and_serve_seeds(self):
        roles = self._graph(
            """
            def simulate_round(nodes):
                shared_step(nodes)

            def handle_query(req):
                shared_step(req)

            def shared_step(x):
                pass
            """
        )
        assert "sim" in roles["simulate_round"]
        assert "serve" in roles["handle_query"]
        assert {"sim", "serve"} <= roles["shared_step"]

    def test_rank_seeds(self):
        roles = self._graph(
            """
            def cluster_rank_program(ctx):
                pass

            def rank_worker_body(ctx):
                pass
            """
        )
        assert "rank" in roles["cluster_rank_program"]
        assert "rank" in roles["rank_worker_body"]


class TestPC007:
    def test_unlocked_worker_commit_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def worker(store, triples):
                store.add_delta(triples)
            """,
        )
        assert _rules(report) == ["PC007"]

    def test_locked_commit_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def worker(store, commit_lock, triples):
                with commit_lock:
                    store.add_delta(triples)
            """,
        )
        assert report.ok, report.violations

    def test_rank_private_store_exempt(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def rank_setup(n, triples):
                store = LabelStore(n)
                store.add_delta(triples)
            """,
        )
        assert report.ok, report.violations

    def test_interprocedural_commit_flagged(self, tmp_path):
        """The callee commits; only the caller is worker-seeded."""
        report = _analyze(
            tmp_path,
            """
            def commit_all(store, triples):
                store.merge_from(triples)

            def worker(store, triples):
                commit_all(store, triples)
            """,
        )
        assert _rules(report) == ["PC007"]

    def test_non_worker_commit_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def serial_build(store, triples):
                store.add_delta(triples)
            """,
        )
        assert report.ok, report.violations


class TestPC008:
    def test_subscript_write_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def patch(store):
                dists = store.finalized_dists()
                dists[0] = 0.0
            """,
        )
        assert _rules(report) == ["PC008"]

    def test_tuple_unpack_tracked(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def patch(store):
                indptr, hubs, dists = store.finalized_arrays()
                hubs[3] += 1
            """,
        )
        assert _rules(report) == ["PC008"]

    def test_mutating_method_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def patch(store):
                store.finalized_hubs().sort()
            """,
        )
        assert _rules(report) == ["PC008"]

    def test_copy_then_write_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def patch(store):
                dists = store.finalized_dists().copy()
                dists[0] = 0.0
            """,
        )
        assert report.ok, report.violations


class TestPC009:
    def test_untimed_queue_get_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def handle_query(reply_queue):
                return reply_queue.get()
            """,
        )
        assert _rules(report) == ["PC009"]

    def test_timed_get_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def handle_query(reply_queue):
                return reply_queue.get(timeout=0.5)
            """,
        )
        assert report.ok, report.violations

    def test_create_connection_without_timeout_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import socket

            def handle_fetch(host, port):
                return socket.create_connection((host, port))
            """,
        )
        assert _rules(report) == ["PC009"]

    def test_untimed_wait_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def handle_flush(done_event):
                done_event.wait()
            """,
        )
        assert _rules(report) == ["PC009"]

    def test_non_serve_code_unaffected(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def drain(reply_queue):
                return reply_queue.get()
            """,
        )
        assert report.ok, report.violations


class TestPC010:
    def test_set_iteration_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def simulate_frontier(neighbors):
                frontier = set(neighbors)
                for v in frontier:
                    pass
            """,
        )
        assert _rules(report) == ["PC010"]

    def test_comprehension_over_set_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def simulate_frontier(neighbors):
                return [v for v in {1, 2, 3}]
            """,
        )
        assert _rules(report) == ["PC010"]

    def test_sorted_set_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def simulate_frontier(neighbors):
                frontier = set(neighbors)
                for v in sorted(frontier):
                    pass
            """,
        )
        assert report.ok, report.violations

    def test_non_sim_set_iteration_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def summarize(neighbors):
                for v in set(neighbors):
                    pass
            """,
        )
        assert report.ok, report.violations


class TestPC011:
    def test_direct_lock_flagged(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            _LOCK = threading.Lock()
            """,
        )
        assert _rules(report) == ["PC011"]

    def test_make_lock_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            from repro.check import hooks

            _LOCK = hooks.make_lock("snippet.lock")
            """,
        )
        assert report.ok, report.violations


class TestSuppression:
    def test_inline_pragma(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            def worker(store, triples):
                store.add_delta(triples)  # lint-ok: PC007 startup only
            """,
        )
        assert report.ok
        assert len(report.suppressed) == 1

    def test_suppression_file_entries(self, tmp_path):
        from repro.check.lint import Suppression

        path = tmp_path / "snippet.py"
        path.write_text(
            textwrap.dedent(
                """
                def worker(store, triples):
                    store.add_delta(triples)
                """
            )
        )
        report = analyze_paths(
            [str(path)],
            suppressions=[
                Suppression(
                    rule="PC007", path=str(path), reason="accepted"
                )
            ],
        )
        assert report.ok
        assert len(report.suppressed) == 1


class TestRealTree:
    def test_src_is_clean_without_suppressions(self):
        report = analyze_paths(["src"])
        assert report.violations == [], [
            f"{v.path}:{v.line}: {v.rule} {v.message}"
            for v in report.violations
        ]
        assert report.functions > 500
        for role in ("worker", "rank", "sim", "serve"):
            assert report.roles[role] > 0


class TestCorpus:
    def test_dataflow_corpus_expectations_hold(self):
        cases = run_dataflow_corpus("tests/corpus/dataflow")
        assert len(cases) >= 6
        failed = [c for c in cases if not c.ok]
        assert not failed, "\n".join(
            f"{c.path}: expected {c.expect}, got {c.got}\n{c.detail}"
            for c in failed
        )
        flagged = {r for c in cases for r in c.expect}
        assert flagged == {
            "PC007", "PC008", "PC009", "PC010", "PC011",
        }
        assert any(c.expect == [] for c in cases)
