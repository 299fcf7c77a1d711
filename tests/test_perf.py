"""Tests for the benchmark suite, BENCH files and the regression gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro import obs
from repro.obs.env import environment_metadata, git_revision
from repro.obs.perf import (
    BENCH_SCHEMA,
    DEFAULT_TOLERANCES,
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
    obs.configure(metrics=True, tracing=False, trace_capacity=4096)
    yield
    obs.reset()
    obs.configure(metrics=True, tracing=False, trace_capacity=4096)


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
        assert not report.regressions

    def test_injected_regression_fails(self, suite_doc):
        current = copy.deepcopy(suite_doc)
        metric = current["workloads"]["serial_build"]["metrics"]["labels"]
        metric["median"] *= 1.5
        report = compare(suite_doc, current)
        assert not report.ok
        assert report.exit_code == 1
        (bad,) = report.regressions
        assert (bad.workload, bad.metric) == ("serial_build", "labels")
        assert bad.status == "regressed"
        assert "FAIL" in report.render()

    def test_missing_metric_fails(self):
        base = _make_doc({"a": _m(10.0), "b": _m(5.0)})
        cur = _make_doc({"a": _m(10.0)})
        report = compare(base, cur)
        assert not report.ok
        (bad,) = report.regressions
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
        (bad,) = report.regressions
        assert bad.ratio is None

    def test_zero_baseline_within_epsilon_unchanged(self):
        # counter epsilon is 0.5: a drift of 0.4 is not a change.
        base = _make_doc({"a": _m(0.0)})
        cur = _make_doc({"a": _m(0.4)})
        assert compare(base, cur).ok

    def test_within_tolerance_noise_unchanged(self):
        base = _make_doc({"t": _m(10.0, kind="time", tol=0.35)})
        cur = _make_doc({"t": _m(12.0, kind="time", tol=0.35)})
        report = compare(base, cur)
        assert report.ok
        assert report.counts()["unchanged"] == 1

    def test_improvement_classified(self):
        base = _make_doc({"t": _m(10.0, kind="time", tol=0.35)})
        cur = _make_doc({"t": _m(5.0, kind="time", tol=0.35)})
        report = compare(base, cur)
        assert report.ok
        assert report.counts()["improved"] == 1

    def test_time_epsilon_absorbs_microjitter(self):
        # 1 ms -> 3 ms is 3x, but below the 5 ms absolute epsilon.
        base = _make_doc({"t": _m(0.001, kind="time", tol=0.35)})
        cur = _make_doc({"t": _m(0.003, kind="time", tol=0.35)})
        assert compare(base, cur).counts()["unchanged"] == 1

    def test_tolerance_scale_loosens_gate(self):
        base = _make_doc({"t": _m(10.0, kind="time", tol=0.35)})
        cur = _make_doc({"t": _m(15.0, kind="time", tol=0.35)})
        assert not compare(base, cur).ok
        assert compare(base, cur, tolerance_scale=2.0).ok

    def test_tolerance_scale_invalid(self):
        doc = _make_doc({"a": _m(1.0)})
        with pytest.raises(PerfError):
            compare(doc, doc, tolerance_scale=0.0)

    def test_ignore_kinds_skips_time(self):
        base = _make_doc(
            {"t": _m(1.0, kind="time", tol=0.0), "c": _m(5.0)}
        )
        cur = _make_doc(
            {"t": _m(9.0, kind="time", tol=0.0), "c": _m(5.0)}
        )
        assert not compare(base, cur).ok
        report = compare(base, cur, ignore_kinds=("time",))
        assert report.ok
        assert len(report.comparisons) == 1

    def test_config_mismatch_raises(self):
        base = _make_doc({"a": _m(1.0)})
        cur = _make_doc(
            {"a": _m(1.0)},
            config={"scale": 0.5, "seed": 42, "dataset": "Gnutella"},
        )
        with pytest.raises(PerfError):
            compare(base, cur)

    def test_time_across_cpu_counts_raises(self):
        metrics = {"t": _m(1.0, kind="time", tol=0.35), "c": _m(5.0)}
        base = _make_doc(metrics)
        cur = _make_doc(metrics)
        base["environment"] = {"cpu_count": 1}
        cur["environment"] = {"cpu_count": 4}
        with pytest.raises(PerfError, match="cpu_count 1 .* and 4"):
            compare(base, cur)
        report = compare(base, cur, ignore_kinds=("time",))
        assert report.ok
        assert [c.metric for c in report.comparisons] == ["c"]
        cur["environment"] = {"cpu_count": 1}
        assert compare(base, cur).ok

    def test_checked_in_baseline_gates_across_cpu_counts_without_time(self):
        import json
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "benchmarks", "baseline.json")) as fh:
            baseline = json.load(fh)
        current = copy.deepcopy(baseline)
        current["environment"]["cpu_count"] = baseline["environment"]["cpu_count"] + 1
        with pytest.raises(PerfError, match="cpu_count"):
            compare(baseline, current)
        assert compare(baseline, current, ignore_kinds=("time",)).ok

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


class TestExplainOverheadWorkload:
    def test_workload_registered(self):
        names = [w.name for w in default_workloads()]
        assert "explain_overhead" in names

    def test_explain_matches_every_pair(self, suite_doc):
        metrics = suite_doc["workloads"]["explain_overhead"]["metrics"]
        assert metrics["explain_matches"]["median"] == metrics["pairs"]["median"]
        assert metrics["pairs"]["median"] == 100.0

    def test_counters_exact_kind(self, suite_doc):
        metrics = suite_doc["workloads"]["explain_overhead"]["metrics"]
        assert metrics["explain_matches"]["kind"] == "counter"
        assert metrics["plain_query_seconds"]["kind"] == "time"
        assert metrics["explain_seconds"]["kind"] == "time"


class TestBatchQueryWorkload:
    def test_workload_registered(self):
        names = [w.name for w in default_workloads()]
        assert "batch_query" in names

    def test_batch_matches_every_pair(self, suite_doc):
        # The kernel is exact: all 10k batch answers must equal the
        # scalar loop bit-for-bit, every repeat.
        metrics = suite_doc["workloads"]["batch_query"]["metrics"]
        assert metrics["batch_matches"]["median"] == metrics["pairs"]["median"]
        assert metrics["pairs"]["median"] == 10000.0
        assert metrics["batch_matches"]["min"] == metrics["batch_matches"]["max"]

    def test_metric_kinds(self, suite_doc):
        metrics = suite_doc["workloads"]["batch_query"]["metrics"]
        assert metrics["batch_matches"]["kind"] == "counter"
        assert metrics["batch_seconds"]["kind"] == "time"
        assert metrics["scalar_seconds"]["kind"] == "time"
        assert metrics["batch_over_scalar"]["kind"] == "time"


class TestCheckOverheadWorkload:
    def test_gc_state_is_restored(self):
        """The workload freezes the collector only while it times."""
        import gc

        from repro.obs.perf import _wl_check_overhead

        assert gc.isenabled()
        ctx = PerfContext(scale=0.1, seed=42, dataset="Gnutella")
        metrics = _wl_check_overhead(ctx)
        assert gc.isenabled()
        assert metrics["vc_races"]["value"] == 0.0
