"""Tests for the benchmark suite, BENCH files and the regression gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro import obs
from repro.obs.env import environment_metadata, git_revision
from repro.obs.perf import (
    BATCH_PAIRS,
    BENCH_SCHEMA,
    DEFAULT_TOLERANCES,
    EXPLAIN_PAIRS,
    HOOKS,
    PerfError,
    PerfContext,
    Workload,
    default_workloads,
    read_bench,
    render_bench,
    run_suite,
    write_bench,
)
from repro.obs.regression import compare


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.configure(metrics=True, tracing=False)
    yield
    obs.reset()
    obs.configure(metrics=True, tracing=False)


def _tiny_suite(**kwargs):
    kwargs.setdefault("repeats", 1)
    kwargs.setdefault("scale", 0.25)
    kwargs.setdefault("tag", "test")
    return run_suite(**kwargs)


@pytest.fixture(scope="module")
def suite_doc():
    obs.reset()
    doc = run_suite(repeats=2, scale=0.25, tag="test")
    obs.reset()
    return doc


def _make_doc(metrics, config=None):
    """A minimal hand-built BENCH document for gate edge cases."""
    return {
        "schema": BENCH_SCHEMA,
        "tag": "hand",
        "environment": {},
        "config": config or {"scale": 1.0, "seed": 42, "dataset": "Gnutella"},
        "workloads": {"wl": {"metrics": metrics}},
    }


def _m(median, kind="counter", tol=0.0):
    return {
        "median": median,
        "min": median,
        "max": median,
        "runs": [median],
        "kind": kind,
        "unit": "x",
        "tol": tol,
    }


class TestEnvironment:
    def test_metadata_keys(self):
        meta = environment_metadata()
        for key in (
            "python",
            "platform",
            "machine",
            "cpu_count",
            "git_sha",
            "timestamp_utc",
        ):
            assert key in meta
        assert meta["timestamp_utc"].endswith("+00:00")

    def test_git_revision_of_repo(self):
        sha = git_revision()
        assert sha is None or len(sha) == 40

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(str(tmp_path)) is None


class TestSuite:
    def test_document_shape(self, suite_doc):
        assert suite_doc["schema"] == BENCH_SCHEMA
        assert suite_doc["tag"] == "test"
        assert suite_doc["config"]["repeats"] == 2
        names = {wl.name for wl in default_workloads()}
        assert set(suite_doc["workloads"]) == names

    def test_every_metric_well_formed(self, suite_doc):
        for wl_name, entry in suite_doc["workloads"].items():
            assert entry["metrics"], wl_name
            for m_name, m in entry["metrics"].items():
                assert m["kind"] in DEFAULT_TOLERANCES, (wl_name, m_name)
                assert m["min"] <= m["median"] <= m["max"]
                assert len(m["runs"]) == 2
                assert m["tol"] >= 0.0

    def test_counters_deterministic_across_repeats(self, suite_doc):
        metrics = suite_doc["workloads"]["serial_build"]["metrics"]
        for name in ("heap_pops", "labels", "prune_hits"):
            runs = metrics[name]["runs"]
            assert runs[0] == runs[1], name

    def test_sim_timeline_fractions(self, suite_doc):
        timeline = suite_doc["workloads"]["sim_build_p4"]["timeline"]
        assert timeline["chain_tasks"] >= 1
        assert 0 < timeline["chain_coverage"] <= 1.0 + 1e-9
        assert timeline["workers"]
        for worker in timeline["workers"]:
            total = worker["busy"] + worker["lock_wait"] + worker["idle"]
            assert total == pytest.approx(1.0)

    def test_document_json_serialisable(self, suite_doc):
        json.dumps(suite_doc)

    def test_invalid_repeats(self):
        with pytest.raises(PerfError):
            run_suite(repeats=0)

    def test_custom_workload_list(self):
        calls = []

        def fn(ctx):
            calls.append(ctx.graph.num_vertices)
            return {
                "v": {"value": 1.0, "kind": "counter", "unit": "x", "tol": 0.0}
            }

        doc = _tiny_suite(workloads=[Workload("only", fn)], repeats=2)
        assert list(doc["workloads"]) == ["only"]
        assert len(calls) == 2

    def test_context_loads_graph(self):
        ctx = PerfContext(scale=0.25, seed=42, dataset="Gnutella")
        assert ctx.graph.num_vertices > 0


class TestBenchIO:
    def test_round_trip(self, suite_doc, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_bench(suite_doc, str(path))
        assert read_bench(str(path)) == suite_doc

    def test_read_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "parapll-bench/99"}))
        with pytest.raises(PerfError):
            read_bench(str(path))

    def test_read_rejects_non_bench(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PerfError):
            read_bench(str(path))

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(PerfError):
            read_bench(str(tmp_path / "nope.json"))

    def test_render_mentions_workloads(self, suite_doc):
        text = render_bench(suite_doc)
        assert "serial_build" in text
        assert "timeline:" in text
        assert "git" in text


class TestGate:
    def test_identical_docs_pass(self, suite_doc):
        report = compare(suite_doc, suite_doc)
        assert report.ok
        assert report.exit_code == 0
        assert not report.failures

    def test_injected_regression_fails(self, suite_doc):
        current = copy.deepcopy(suite_doc)
        metric = current["workloads"]["serial_build"]["metrics"]["labels"]
        metric["median"] *= 1.5
        report = compare(suite_doc, current)
        assert not report.ok
        assert report.exit_code == 1
        (bad,) = report.failures
        assert (bad.workload, bad.metric) == ("serial_build", "labels")
        assert bad.status == "changed"
        assert "FAIL" in report.render()

    def test_missing_metric_fails(self):
        base = _make_doc({"a": _m(10.0), "b": _m(5.0)})
        cur = _make_doc({"a": _m(10.0)})
        report = compare(base, cur)
        assert not report.ok
        (bad,) = report.failures
        assert bad.status == "missing"
        assert bad.metric == "b"

    def test_new_metric_is_informational(self):
        base = _make_doc({"a": _m(10.0)})
        cur = _make_doc({"a": _m(10.0), "extra": _m(3.0)})
        report = compare(base, cur)
        assert report.ok
        assert report.counts()["new"] == 1

    def test_zero_baseline_growth_regresses(self):
        base = _make_doc({"a": _m(0.0)})
        cur = _make_doc({"a": _m(7.0)})
        report = compare(base, cur)
        assert not report.ok
        (bad,) = report.failures
        assert bad.status == "changed"
        assert bad.ratio is None

    def test_zero_baseline_within_epsilon_unchanged(self):
        # counter epsilon is 0.5: a drift of 0.4 is not a change.
        base = _make_doc({"a": _m(0.0)})
        cur = _make_doc({"a": _m(0.4)})
        assert compare(base, cur).ok

    def test_within_tolerance_noise_unchanged(self):
        for cur_value in (10.15, 9.85):
            base = _make_doc({"s": _m(10.0, kind="sim", tol=0.02)})
            cur = _make_doc({"s": _m(cur_value, kind="sim", tol=0.02)})
            report = compare(base, cur)
            assert report.ok
            assert report.counts()["unchanged"] == 1

    def test_improvement_classified(self):
        """A fall beyond the tolerance is a change, not an improvement:
        every suite metric is a fingerprint, so it fails like a rise."""
        base = _make_doc({"s": _m(10.0, kind="sim", tol=0.02)})
        cur = _make_doc({"s": _m(9.0, kind="sim", tol=0.02)})
        report = compare(base, cur)
        assert not report.ok
        assert report.counts()["changed"] == 1
        assert set(report.counts()) == {
            "changed", "missing", "new", "unchanged"
        }

    def test_exact_counter_fall_fails(self):
        # One root skipped: 586 -> 585 on a tol-0 counter.
        base = _make_doc({"roots_committed": _m(586.0)})
        cur = _make_doc({"roots_committed": _m(585.0)})
        report = compare(base, cur)
        assert not report.ok
        (bad,) = report.failures
        assert bad.status == "changed"
        assert bad.ratio == pytest.approx(585.0 / 586.0)
        assert "FAIL" in report.render()

    def test_over_budget_flip_fails(self):
        base = _make_doc({"vc_over_budget": _m(0.0)})
        cur = _make_doc({"vc_over_budget": _m(1.0)})
        report = compare(base, cur)
        assert not report.ok
        (bad,) = report.failures
        assert (bad.metric, bad.status) == ("vc_over_budget", "changed")
        assert "[changed  ] wl.vc_over_budget" in report.render()

    def test_config_mismatch_raises(self):
        base = _make_doc({"a": _m(1.0)})
        cur = _make_doc(
            {"a": _m(1.0)},
            config={"scale": 0.5, "seed": 42, "dataset": "Gnutella"},
        )
        with pytest.raises(PerfError):
            compare(base, cur)

    def test_invalid_document_raises(self):
        with pytest.raises(PerfError):
            compare({}, {})

    def test_render_verbose_lists_unchanged(self):
        doc = _make_doc({"a": _m(5.0)})
        report = compare(doc, doc)
        assert "unchanged" not in report.render(verbose=False).split("\n", 1)[1]
        assert "[unchanged]" in report.render(verbose=True)


class TestCheckedInBaseline:
    @pytest.fixture()
    def baseline_path(self):
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        return os.path.join(here, "..", "benchmarks", "baseline.json")

    def test_baseline_file_is_valid(self, baseline_path):
        doc = read_bench(baseline_path)
        assert doc["schema"] == BENCH_SCHEMA
        names = {wl.name for wl in default_workloads()}
        assert set(doc["workloads"]) == names

    def test_baseline_self_compare_passes(self, baseline_path):
        doc = read_bench(baseline_path)
        assert compare(doc, doc).ok

    def test_baseline_is_deterministic_rows_within_budget(self, baseline_path):
        doc = read_bench(baseline_path)
        assert set(doc["workloads"]) == {w.name for w in default_workloads()}
        kinds = {
            m["kind"]
            for entry in doc["workloads"].values()
            for m in entry["metrics"].values()
        }
        assert kinds <= {"counter", "sim"}
        hook_rows = doc["workloads"]["hook_overhead"]["metrics"]
        budget_rows = {n for n in hook_rows if n.endswith("_over_budget")}
        assert budget_rows == {f"{name}_over_budget" for name, *_ in HOOKS}
        for name in budget_rows:
            assert hook_rows[name]["median"] == 0.0, name


class TestExplainOverheadWorkload:
    # EXPLAIN's agreement pin rides the query-agreement workload.
    def test_workload_registered(self):
        names = [w.name for w in default_workloads()]
        assert "batch_query" in names

    def test_explain_matches_every_pair(self, suite_doc):
        metrics = suite_doc["workloads"]["batch_query"]["metrics"]
        assert metrics["explain_matches"]["median"] == EXPLAIN_PAIRS

    def test_counters_exact_kind(self, suite_doc):
        metric = suite_doc["workloads"]["batch_query"]["metrics"][
            "explain_matches"
        ]
        assert (metric["kind"], metric["tol"]) == ("counter", 0.0)


class TestBatchQueryWorkload:
    def test_workload_registered(self):
        names = [w.name for w in default_workloads()]
        assert "batch_query" in names

    def test_batch_matches_every_pair(self, suite_doc):
        # The kernel is exact: all 10k batch answers must equal the
        # scalar loop bit-for-bit, every repeat.
        metrics = suite_doc["workloads"]["batch_query"]["metrics"]
        assert metrics["batch_matches"]["median"] == BATCH_PAIRS == 10000
        assert metrics["batch_matches"]["min"] == metrics["batch_matches"]["max"]

    def test_metric_kinds(self, suite_doc):
        metrics = suite_doc["workloads"]["batch_query"]["metrics"]
        assert {m["kind"] for m in metrics.values()} == {"counter"}


class TestCheckOverheadWorkload:
    def test_gc_state_is_restored(self):
        """The workload freezes the collector only while it times."""
        import gc

        from repro.check import hooks
        from repro.obs.perf import _wl_hook_overhead

        assert gc.isenabled()
        ctx = PerfContext(scale=0.1, seed=42, dataset="Gnutella")
        metrics = _wl_hook_overhead(ctx)
        assert gc.isenabled()
        assert hooks.get_active() is None
        assert metrics["vc_races"]["value"] == 0.0

    def test_hook_table_budgets(self):
        # One row per hook; the budgets are fractions of the plain path.
        table = {name: (plain, budget) for name, _r, plain, budget in HOOKS}
        assert table == {
            "buildmon": ("serial_build", 0.05),
            "qlog": ("served_request", 0.05),
            "vc": ("threads_build", 0.10),
            "flightrec": ("threads_build", 0.05),
        }
