"""Tests for the lock-order deadlock analysis (runtime + static)."""

import textwrap

import pytest

from repro.check import hooks
from repro.check.corpus import run_deadlock_corpus
from repro.check.deadlock import (
    RULE_CYCLE,
    RULE_ORDER,
    LockOrderRecorder,
    analyze,
    collect_static_edges,
)
from repro.check.vectorclock import VectorClockSanitizer


@pytest.fixture(autouse=True)
def _isolate_sanitizer():
    previous = hooks.get_active()
    hooks.set_active(None)
    yield
    hooks.set_active(previous)


class TestRecorder:
    def test_nested_acquire_records_edge(self):
        rec = LockOrderRecorder()
        rec.note_acquire((), "a")
        rec.note_acquire(("a",), "b")
        (edge,) = rec.edges
        assert (edge.src, edge.dst) == ("a", "b")
        assert edge.count == 1
        assert rec.acquisitions == 2

    def test_cycle_detection(self):
        rec = LockOrderRecorder()
        rec.note_acquire(("a",), "b")
        rec.note_acquire(("b",), "a")
        (cycle,) = rec.cycles()
        assert sorted(cycle) == ["a", "b"]

    def test_self_loop_is_a_cycle(self):
        rec = LockOrderRecorder()
        rec.note_acquire(("a",), "a")
        assert rec.cycles() == [["a"]]

    def test_consistent_order_has_no_cycle(self):
        rec = LockOrderRecorder()
        for _ in range(3):
            rec.note_acquire(("a",), "b")
            rec.note_acquire(("a", "b"), "c")
        assert rec.cycles() == []

    def test_three_lock_cycle(self):
        rec = LockOrderRecorder()
        rec.note_acquire(("a",), "b")
        rec.note_acquire(("b",), "c")
        rec.note_acquire(("c",), "a")
        (cycle,) = rec.cycles()
        assert sorted(cycle) == ["a", "b", "c"]


class TestSanitizerFeed:
    """The sanitizer feeds the recorder through its tracked locks."""

    def test_vc_locks_feed_the_recorder(self):
        rec = LockOrderRecorder()
        with VectorClockSanitizer(lock_order=rec) as vc:
            a = vc.make_lock("alpha")
            b = vc.make_lock("beta")
            with a:
                with b:
                    pass
        (edge,) = rec.edges
        assert (edge.src, edge.dst) == ("alpha", "beta")

    def test_per_instance_names_do_not_merge(self):
        """Two same-named lock pairs must not fabricate a cycle."""
        rec = LockOrderRecorder()
        with VectorClockSanitizer(lock_order=rec) as vc:
            a1 = vc.make_lock("pair.a")
            b1 = vc.make_lock("pair.b")
            a2 = vc.make_lock("pair.a")
            b2 = vc.make_lock("pair.b")
            with a1:
                with b1:
                    pass
            with b2:
                with a2:
                    pass
        assert rec.cycles() == []  # pair.a->pair.b, pair.b#2->pair.a#2


class TestStaticPass:
    def _edges(self, tmp_path, source):
        path = tmp_path / "snippet.py"
        path.write_text(textwrap.dedent(source))
        return collect_static_edges([str(path)])

    def test_nested_with_produces_edge(self, tmp_path):
        edges = self._edges(
            tmp_path,
            """
            def f(a_lock, b_lock):
                with a_lock:
                    with b_lock:
                        pass
            """,
        )
        (edge,) = edges
        assert (edge.outer, edge.inner) == ("a_lock", "b_lock")

    def test_multi_item_with_is_ordered(self, tmp_path):
        edges = self._edges(
            tmp_path,
            """
            def f(a_lock, b_lock):
                with a_lock, b_lock:
                    pass
            """,
        )
        (edge,) = edges
        assert (edge.outer, edge.inner) == ("a_lock", "b_lock")

    def test_def_inside_with_resets_held(self, tmp_path):
        edges = self._edges(
            tmp_path,
            """
            def f(a_lock, b_lock):
                with a_lock:
                    def g():
                        with b_lock:
                            pass
            """,
        )
        assert edges == []

    def test_non_lockish_with_ignored(self, tmp_path):
        edges = self._edges(
            tmp_path,
            """
            def f(path, a_lock):
                with open(path) as fh:
                    with a_lock:
                        pass
            """,
        )
        assert edges == []


class TestAnalyze:
    def test_runtime_cycle_becomes_finding(self):
        rec = LockOrderRecorder()
        rec.note_acquire(("a",), "b")
        rec.note_acquire(("b",), "a")
        findings = analyze((), rec)
        assert [f["rule"] for f in findings] == [RULE_CYCLE]
        assert "a <-> b" in findings[0]["message"]

    def test_static_inversion_becomes_finding(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            textwrap.dedent(
                """
                def f(a_lock, b_lock):
                    with a_lock:
                        with b_lock:
                            pass

                def g(a_lock, b_lock):
                    with b_lock:
                        with a_lock:
                            pass
                """
            )
        )
        findings = analyze([str(path)])
        assert [f["rule"] for f in findings] == [RULE_ORDER]
        assert "inverts the order" in findings[0]["message"]

    def test_static_vs_runtime_inversion(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            textwrap.dedent(
                """
                def f(a_lock, b_lock):
                    with b_lock:
                        with a_lock:
                            pass
                """
            )
        )
        rec = LockOrderRecorder()
        rec.note_acquire(("builder.a_lock",), "builder.b_lock")
        findings = analyze([str(path)], rec)
        assert [f["rule"] for f in findings] == [RULE_ORDER]
        assert "runtime acquisition order" in findings[0]["message"]

    def test_clean_tree_and_recorder(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            textwrap.dedent(
                """
                def f(a_lock, b_lock):
                    with a_lock:
                        with b_lock:
                            pass
                """
            )
        )
        rec = LockOrderRecorder()
        rec.note_acquire(("builder.a_lock",), "builder.b_lock")
        assert analyze([str(path)], rec) == []


class TestRealTree:
    def test_src_has_no_deadlock_findings(self):
        rec = LockOrderRecorder()
        with VectorClockSanitizer(lock_order=rec):
            from repro.generators.random_graphs import gnm_random_graph
            from repro.parallel.threads import build_parallel_threads

            graph = gnm_random_graph(40, 100, seed=7)
            build_parallel_threads(graph, 3, policy="dynamic")
        findings = analyze(["src"], rec)
        assert findings == [], findings


class TestCorpus:
    def test_deadlock_corpus_detects_all_seeded_defects(self):
        cases = run_deadlock_corpus("tests/corpus/deadlocks")
        assert len(cases) >= 3
        failed = [c for c in cases if not c.ok]
        assert not failed, "\n".join(
            f"{c.path}: expected {c.expect}, got {c.got}\n{c.detail}"
            for c in failed
        )
        assert any(c.expect == 0 for c in cases)
        assert any(c.expect > 0 for c in cases)
