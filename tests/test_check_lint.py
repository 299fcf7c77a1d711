"""Tests for the project lint engine (repro.check.lint).

Each rule gets a synthetic snippet that must fire at a known line, and
a near-miss that must not fire — the rules are only useful if they are
precise enough to run with zero suppression noise.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.check.lint import (
    Suppression,
    all_rules,
    format_github,
    format_json,
    format_text,
    lint_paths,
    load_suppressions,
)
from repro.errors import CheckError

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path, relpath, source):
    """Write *source* at *relpath* under tmp and lint just that file."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path, lint_paths([str(path)])


def hits(report, rule):
    return [v for v in report.violations if v.rule == rule]


class TestDeterminismRule:
    def test_wallclock_in_sim_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/sim/clock.py",
            """\
            import time


            def stamp():
                return time.time()
            """,
        )
        (v,) = hits(rep, "PC001")
        assert v.line == 5

    def test_unseeded_rng_in_core_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/pick.py",
            """\
            import numpy as np


            def pick():
                rng = np.random.default_rng()
                return rng.integers(0, 10)
            """,
        )
        (v,) = hits(rep, "PC001")
        assert v.line == 5

    def test_random_module_in_sim_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/sim/jitter.py",
            """\
            import random


            def jitter():
                return random.random()
            """,
        )
        assert hits(rep, "PC001")

    def test_seeded_rng_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/sim/ok.py",
            """\
            import numpy as np


            def pick(seed):
                rng = np.random.default_rng(seed)
                return rng.integers(0, 10)
            """,
        )
        assert not hits(rep, "PC001")

    def test_wallclock_outside_scope_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/obs/clock.py",
            """\
            import time


            def stamp():
                return time.time()
            """,
        )
        assert not hits(rep, "PC001")


class TestLockDisciplineRule:
    def test_unlocked_store_mutation_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/bad.py",
            """\
            def commit(store, commit_lock, delta):
                with commit_lock:
                    store.add_delta(delta)


            def bad_commit(store, delta):
                store.add_delta(delta)
            """,
        )
        (v,) = hits(rep, "PC002")
        assert v.line == 7

    def test_acquire_release_dataflow(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/manual.py",
            """\
            def manual(store, queue_lock, delta):
                queue_lock.acquire()
                store.add_delta(delta)
                queue_lock.release()
                store.add_delta(delta)
            """,
        )
        (v,) = hits(rep, "PC002")
        assert v.line == 5

    def test_constructor_writes_are_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/ctor.py",
            """\
            class Queue:
                def __init__(self, order):
                    self._next = 0
                    self._order = order
            """,
        )
        assert not hits(rep, "PC002")

    def test_shared_cursor_write_outside_lock_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/cursor.py",
            """\
            class Queue:
                def take(self):
                    self._next = self._next + 1
                    return self._next
            """,
        )
        (v,) = hits(rep, "PC002")
        assert v.line == 3

    def test_outside_scope_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/serialish.py",
            """\
            def merge(store, other):
                store.merge_from(other)
            """,
        )
        assert not hits(rep, "PC002")


class TestFloatEqualityRule:
    def test_distance_equality_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/verify.py",
            """\
            def check(index, truth, t):
                got = index.distance(0, t)
                if got == truth[t]:
                    return True
                return False
            """,
        )
        (v,) = hits(rep, "PC003")
        assert v.line == 3

    def test_inf_sentinel_comparison_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/reach.py",
            """\
            from repro.types import INF


            def unreachable(index, t):
                got = index.distance(0, t)
                return got == INF
            """,
        )
        assert not hits(rep, "PC003")

    def test_sanctioned_module_is_exempt(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/paths.py",
            """\
            def isclose_distance(a, b):
                got = a
                want = b
                return got == want
            """,
        )
        assert not hits(rep, "PC003")

    def test_non_distance_equality_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/names.py",
            """\
            def same_name(a, b):
                return a.name == b.name
            """,
        )
        assert not hits(rep, "PC003")


class TestExceptionHygieneRule:
    def test_bare_except_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/swallow.py",
            """\
            def loop():
                try:
                    work()
                except:
                    pass
            """,
        )
        (v,) = hits(rep, "PC004")
        assert v.line == 4

    def test_swallowed_broad_exception_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/service/worker.py",
            """\
            def loop():
                try:
                    work()
                except Exception:
                    return None
            """,
        )
        (v,) = hits(rep, "PC004")
        assert v.line == 4

    def test_recorded_exception_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/record.py",
            """\
            def loop(errors):
                try:
                    work()
                except Exception as exc:
                    errors.append(exc)
            """,
        )
        assert not hits(rep, "PC004")

    def test_reraise_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/reraise.py",
            """\
            def loop():
                try:
                    work()
                except Exception:
                    cleanup()
                    raise
            """,
        )
        assert not hits(rep, "PC004")


class TestImportLayeringRule:
    def test_upward_import_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/graph/upward.py",
            """\
            from repro.cluster.runner import run_cluster_threads
            """,
        )
        (v,) = hits(rep, "PC005")
        assert v.line == 1

    def test_obs_facade_is_sanctioned(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/lowlevel.py",
            """\
            from repro.obs import config as _obs_config
            from repro.obs import trace as _trace
            """,
        )
        assert not hits(rep, "PC005")

    def test_check_hooks_is_sanctioned(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/parallel/hooked.py",
            """\
            from repro.check import hooks as _check_hooks
            """,
        )
        assert not hits(rep, "PC005")

    def test_lazy_import_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/graph/lazy.py",
            """\
            def diameter(graph):
                from repro.baselines.dijkstra import dijkstra_sssp

                return dijkstra_sssp(graph, 0)
            """,
        )
        assert not hits(rep, "PC005")

    def test_downward_import_is_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/cluster/downward.py",
            """\
            from repro.graph.csr import CSRGraph
            """,
        )
        assert not hits(rep, "PC005")


class TestLabelInternalsRule:
    def test_read_of_finalized_slot_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/service/peek.py",
            """\
            def entries(store):
                return len(store._finalized_hubs)
            """,
        )
        (v,) = hits(rep, "PC006")
        assert v.line == 2
        assert "_finalized_hubs" in v.message

    def test_write_of_finalized_slot_fires(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/tamper.py",
            """\
            def corrupt(store):
                store._finalized_dists = None
                store._finalized_indptr = None
            """,
        )
        assert len(hits(rep, "PC006")) == 2

    def test_labels_module_itself_is_exempt(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/labels.py",
            """\
            class LabelStore:
                def finalized_arrays(self):
                    return self._finalized_indptr, self._finalized_hubs
            """,
        )
        assert not hits(rep, "PC006")

    def test_public_accessors_are_fine(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/service/clean.py",
            """\
            def entries(store, v):
                return store.finalized_hubs(v), store.finalized_arrays()
            """,
        )
        assert not hits(rep, "PC006")


class TestEngine:
    def test_syntax_error_reports_pc000(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/broken.py", "def broken(:\n"
        )
        (v,) = rep.violations
        assert v.rule == "PC000"

    def test_inline_pragma_suppresses(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/pragma.py",
            """\
            def check(index, truth, t):
                got = index.distance(0, t)
                return got == truth[t]  # lint-ok: PC003 — exact by design
            """,
        )
        assert not rep.violations
        assert len(rep.suppressed) == 1

    def test_pragma_is_rule_specific(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/pragma2.py",
            """\
            def check(index, truth, t):
                got = index.distance(0, t)
                return got == truth[t]  # lint-ok: PC001
            """,
        )
        assert hits(rep, "PC003")

    def test_suppression_file_matching(self, tmp_path):
        path = tmp_path / "repro" / "core" / "supp.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "def f(index, truth, t):\n"
            "    got = index.distance(0, t)\n"
            "    return got == truth[t]\n"
        )
        sup = Suppression(
            rule="PC003", path="repro/core/supp.py", reason="test"
        )
        rep = lint_paths([str(path)], suppressions=[sup])
        assert not rep.violations
        assert len(rep.suppressed) == 1
        assert not rep.unused_suppressions

    def test_unused_suppression_is_reported(self, tmp_path):
        path = tmp_path / "repro" / "core" / "clean.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        sup = Suppression(rule="PC003", path="nowhere.py", reason="stale")
        rep = lint_paths([str(path)], suppressions=[sup])
        assert rep.unused_suppressions == [sup]

    def test_suppression_file_requires_reasons(self, tmp_path):
        doc = {"suppressions": [{"rule": "PC003", "path": "x.py", "reason": ""}]}
        path = tmp_path / "sup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckError):
            load_suppressions(str(path))

    def test_cache_roundtrip(self, tmp_path):
        src = tmp_path / "repro" / "core" / "cached.py"
        src.parent.mkdir(parents=True)
        src.write_text(
            "def f(index, truth, t):\n"
            "    got = index.distance(0, t)\n"
            "    return got == truth[t]\n"
        )
        cache = tmp_path / "cache.json"
        first = lint_paths([str(src)], cache_path=str(cache))
        assert first.files_from_cache == 0
        second = lint_paths([str(src)], cache_path=str(cache))
        assert second.files_from_cache == 1
        assert [v.rule for v in second.violations] == ["PC003"]
        # An edit invalidates the cached entry for that file.
        src.write_text("x = 1\n")
        third = lint_paths([str(src)], cache_path=str(cache))
        assert third.files_from_cache == 0
        assert not third.violations

    def test_output_formats(self, tmp_path):
        _, rep = lint_snippet(
            tmp_path, "repro/core/fmt.py",
            """\
            def f(index, truth, t):
                got = index.distance(0, t)
                return got == truth[t]
            """,
        )
        assert "PC003" in format_text(rep)
        doc = json.loads(format_json(rep))
        assert doc["violations"][0]["rule"] == "PC003"
        assert "::error file=" in format_github(rep)

    def test_rule_registry_is_complete(self):
        ids = [r.id for r in all_rules()]
        assert ids == [
            "PC001", "PC002", "PC003", "PC004", "PC005", "PC006",
        ]


class TestRepositoryIsClean:
    def test_src_lints_clean_with_checked_in_suppressions(self):
        """The acceptance gate: zero unsuppressed violations in src/."""
        sups = load_suppressions(str(REPO_ROOT / ".parapll-lint.json"))
        rep = lint_paths([str(REPO_ROOT / "src")], suppressions=sups)
        assert rep.files_checked > 90
        assert not rep.violations, format_text(rep)
        assert not rep.unused_suppressions
