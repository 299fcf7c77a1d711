"""Tests for the observability layer: metrics, tracing, export, timers.

Global state (the default registry / event ring / config) is reset around
every test via the autouse fixture below, so tests here cannot leak
into each other or into the rest of the suite.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import obs
from repro.errors import ReproError
from repro.generators.random_graphs import gnm_random_graph
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    ObsError,
    PhaseTimer,
    SamplingProfiler,
    flightrec,
)
from repro.obs.instruments import KNOWN_SERVICE_OPS, record_request


@pytest.fixture(autouse=True)
def clean_obs():
    """Reset metrics/traces and restore the default configuration."""
    obs.reset()
    obs.configure(metrics=True, tracing=False)
    yield
    obs.reset()
    obs.configure(metrics=True, tracing=False)


# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        with pytest.raises(ObsError):
            c.inc(-1)

    def test_gauge_set_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("g", "help")
        g.set(10)
        g.dec(3)
        assert g.value() == 7.0

    def test_labeled_series_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "help", labels=("worker",))
        c.labels(worker="0").inc(5)
        c.labels(worker="1").inc(7)
        assert c.labels(worker="0").value() == 5
        assert c.labels(worker="1").value() == 7

    def test_wrong_label_set_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "help", labels=("worker",))
        with pytest.raises(ObsError):
            c.labels(thread="0")
        with pytest.raises(ObsError):
            c.labels()

    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total", "help")
        assert a is b

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help")
        with pytest.raises(ObsError):
            reg.gauge("x_total", "help")

    def test_obs_error_is_repro_error(self):
        assert issubclass(ObsError, ReproError)

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        c.inc(9)
        reg.reset()
        assert c.value() == 0.0  # same handle, zeroed
        c.inc()
        assert c.value() == 1.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help", labels=("op",)).labels(op="q").inc()
        snap = reg.snapshot()
        assert snap == [
            {
                "name": "x_total",
                "kind": "counter",
                "help": "help",
                "series": [{"labels": {"op": "q"}, "value": 1.0}],
            }
        ]

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", "help", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(100.0)  # lands in +Inf
        text = json.dumps(reg.snapshot())  # must not raise
        assert "+Inf" in text


class TestHistogram:
    def test_bucket_boundaries_inclusive(self):
        # A value exactly on a bucket edge counts into that bucket
        # (Prometheus `le` semantics: upper bounds are inclusive).
        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(1.0, 5.0, 10.0))
        for v in (1.0, 5.0, 5.0, 10.0, 11.0):
            h.observe(v)
        snap = h.value()
        buckets = dict(snap["buckets"])
        assert buckets[1.0] == 1  # cumulative: just the 1.0
        assert buckets[5.0] == 3  # + both 5.0s
        assert buckets[10.0] == 4  # + the 10.0
        assert buckets["+Inf"] == 5  # everything
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(32.0)

    def test_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", "help", buckets=(1.0, 2.0))
        with pytest.raises(ObsError):
            reg.histogram("h", "help", buckets=(1.0, 3.0))


class TestConcurrency:
    def test_concurrent_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "help")
        n_threads, n_incs = 8, 2000

        def worker():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == n_threads * n_incs

    def test_concurrent_histogram_observes(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(0.5,))
        n_threads, n_obs = 4, 1000

        def worker():
            for _ in range(n_obs):
                h.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.value()
        assert snap["count"] == n_threads * n_obs
        assert snap["sum"] == pytest.approx(n_threads * n_obs)

    def test_concurrent_label_creation(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "help", labels=("w",))
        barrier = threading.Barrier(6)

        def worker(i):
            barrier.wait()
            for _ in range(500):
                c.labels(w=str(i % 2)).inc()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = c.labels(w="0").value() + c.labels(w="1").value()
        assert total == 6 * 500


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@pytest.fixture
def ring(monkeypatch):
    """A private flight-recorder ring with tracing on."""
    recorder = FlightRecorder(capacity=64)
    monkeypatch.setattr(flightrec, "_global_recorder", recorder)
    obs.configure(tracing=True)
    return recorder


class TestTracer:
    def test_span_records_duration(self, ring):
        with obs.span("work", root=3) as sp:
            sp.set(labels=7)
        (rec,) = ring.snapshot()
        assert rec["kind"] == "work"
        assert rec["dur"] is not None and rec["dur"] >= 0
        assert rec["attrs"] == {"root": 3, "labels": 7}

    def test_nesting_parentage(self, ring):
        with obs.span("outer"):
            with obs.span("inner"):
                obs.event("tick")
        by_name = {r["kind"]: r for r in ring.snapshot()}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["tick"]["parent_id"] == by_name["inner"]["span_id"]
        # Spans take their seq when they close, like every event.
        assert [r["kind"] for r in ring.snapshot()] == [
            "tick", "inner", "outer"
        ]

    def test_event_explicit_ts(self, ring):
        obs.event("commit", ts=12.5, clock="sim")
        (rec,) = ring.snapshot()
        assert rec["attrs"] == {"ts": 12.5, "clock": "sim"}
        assert "dur" not in rec

    def test_ring_buffer_bounded(self, ring):
        ring.set_capacity(3)
        for i in range(10):
            obs.event(f"e{i}")
        names = [r["kind"] for r in ring.snapshot()]
        assert names == ["e7", "e8", "e9"]

    def test_disabled_tracing_is_noop(self, ring):
        obs.configure(tracing=False)
        with obs.span("work") as sp:
            sp.set(x=1)  # must not raise on the null span
        obs.event("tick")
        assert len(ring) == 0

    def test_enabled_via_configure(self):
        obs.configure(tracing=True)
        try:
            with obs.span("work"):
                pass
        finally:
            obs.configure(tracing=False)
        assert [e["kind"] for e in obs.get_recorder().snapshot()] == ["work"]

    def test_jsonl_round_trip(self, ring, tmp_path):
        with obs.span("root_search", root=5, worker=0) as sp:
            sp.set(labels=11)
        obs.event("commit", ts=3.5, clock="sim")
        path = str(tmp_path / "trace.jsonl")
        assert ring.dump(path, reason="test") == 2
        header, back = flightrec.read_dump(path, flightrec.FLIGHTREC_SCHEMA)
        assert header["reason"] == "test" and header["events"] == 2
        assert back == ring.snapshot()

    def test_jsonl_to_file_object(self, ring):
        obs.event("x")
        buf = io.StringIO()
        ring.dump(buf)
        header, line = buf.getvalue().strip().splitlines()
        assert json.loads(header)["schema"] == flightrec.FLIGHTREC_SCHEMA
        assert json.loads(line)["kind"] == "x"

    def test_record_round_trip_dict(self):
        rec = {
            "seq": 4,
            "ts": 1.0,
            "mono": 2.0,
            "kind": "n",
            "thread": "MainThread",
            "attrs": {"a": 1},
            "parent_id": None,
        }
        buf = io.StringIO()
        flightrec.write_dump(buf, flightrec.FLIGHTREC_SCHEMA, [rec])
        _header, (back,) = flightrec.read_dump(
            buf.getvalue().splitlines(), flightrec.FLIGHTREC_SCHEMA
        )
        assert back == rec


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("q_total", "queries", labels=("op",)).labels(
            op="distance"
        ).inc(3)
        reg.gauge("phase_seconds", "time", labels=("phase",)).labels(
            phase="search"
        ).set(1.25)
        text = obs.prometheus_text(reg)
        assert "# HELP q_total queries" in text
        assert "# TYPE q_total counter" in text
        assert 'q_total{op="distance"} 3' in text
        assert 'phase_seconds{phase="search"} 1.25' in text

    def test_histogram_expansion(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = obs.prometheus_text(reg)
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "h", labels=("op",)).labels(
            op='we"ird\\op'
        ).inc()
        text = obs.prometheus_text(reg)
        assert 'op="we\\"ird\\\\op"' in text

    def test_every_sample_line_parses(self):
        # Drive a real build, then sanity-parse the whole exposition.
        graph = gnm_random_graph(40, 100, seed=7)
        from repro.core.index import PLLIndex

        PLLIndex.build(graph)
        for line in obs.prometheus_text().strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            if value != "+Inf":
                float(value)  # must parse


# ----------------------------------------------------------------------
# Instrumented builds
# ----------------------------------------------------------------------
class TestInstrumentedBuild:
    def test_serial_build_populates_metrics(self):
        from repro.core.index import PLLIndex

        graph = gnm_random_graph(40, 100, seed=7)
        PLLIndex.build(graph)
        reg = obs.get_registry()
        assert reg.get("parapll_build_roots_total").value() == 40
        assert reg.get("parapll_build_labels_total").value() > 0
        phases = reg.get("parapll_build_phase_seconds")
        assert phases.labels(phase="search").value() > 0

    def test_threaded_build_worker_roots_sum(self):
        from repro.parallel.threads import build_parallel_threads

        graph = gnm_random_graph(60, 180, seed=3)
        build_parallel_threads(graph, 3, policy="dynamic")
        reg = obs.get_registry()
        workers = reg.get("parapll_worker_roots_total")
        total = sum(
            s.value() for _k, s in workers.series_items()
        )
        assert total == 60
        assert reg.get("parapll_commits_total").value() == 60

    def test_metrics_disabled_leaves_registry_empty(self):
        from repro.core.index import PLLIndex

        graph = gnm_random_graph(30, 60, seed=1)
        obs.configure(metrics=False)
        try:
            PLLIndex.build(graph)
        finally:
            obs.configure(metrics=True)
        assert obs.get_registry().get("parapll_build_roots_total").value() == 0

    def test_cluster_sim_records_sync_metrics(self):
        from repro.cluster.parapll import simulate_cluster

        graph = gnm_random_graph(40, 120, seed=5)
        simulate_cluster(graph, num_nodes=2, threads_per_node=2, syncs=2)
        reg = obs.get_registry()
        assert reg.get("parapll_cluster_sync_rounds_total").value() >= 2
        hist = reg.get("parapll_cluster_sync_entries").value()
        assert hist["count"] >= 2

    def test_render_summary_sections(self):
        from repro.core.index import PLLIndex

        graph = gnm_random_graph(40, 100, seed=7)
        PLLIndex.build(graph)
        text = obs.render_summary()
        assert "build:" in text
        assert "roots searched     40" in text
        assert "prune rate" in text

    def test_render_summary_empty(self):
        assert "(no metrics recorded)" in obs.render_summary(
            MetricsRegistry()
        )

    def test_overhead_within_budget(self):
        # Acceptance: metrics-on build_serial within 10% of metrics-off.
        # Timing in CI is noisy, so assert with a generous 1.5x margin —
        # a per-pop (rather than per-root) instrumentation bug would
        # blow well past that.
        import time

        from repro.core.index import PLLIndex

        graph = gnm_random_graph(300, 1200, seed=11)

        def build_once() -> float:
            t0 = time.perf_counter()
            PLLIndex.build(graph)
            return time.perf_counter() - t0

        build_once()  # warm caches
        obs.configure(metrics=False)
        try:
            off = min(build_once() for _ in range(3))
        finally:
            obs.configure(metrics=True)
        on = min(build_once() for _ in range(3))
        assert on <= off * 1.5 + 0.05


# ----------------------------------------------------------------------
# Instrument helpers
# ----------------------------------------------------------------------
class TestInstrumentHelpers:
    def test_record_request_known_op(self):
        record_request("distance", 0.01, True)
        reg = obs.get_registry()
        c = reg.get("parapll_service_requests_total")
        assert c.labels(op="distance").value() == 1

    def test_record_request_clamps_unknown_op(self):
        # Arbitrary client-supplied op names must not mint new series.
        record_request("teleport", 0.01, False)
        reg = obs.get_registry()
        assert "teleport" not in KNOWN_SERVICE_OPS
        c = reg.get("parapll_service_requests_total")
        assert c.labels(op="unknown").value() == 1
        assert (
            reg.get("parapll_service_errors_total")
            .labels(op="unknown")
            .value()
            == 1
        )


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------
class TestTimers:
    def test_phase_timer_accumulates(self):
        reg = MetricsRegistry()
        timer = PhaseTimer(registry=reg)
        with timer.phase("order"):
            pass
        with timer.phase("search"):
            pass
        with timer.phase("search"):
            pass
        report = timer.report()
        assert set(report) == {"order", "search"}
        assert all(v >= 0 for v in report.values())
        assert timer.total == pytest.approx(sum(report.values()))
        # Mirrored into the gauge as well.
        g = reg.get("parapll_build_phase_seconds")
        assert g.labels(phase="search").value() == pytest.approx(
            report["search"]
        )

    def test_sampling_profiler_smoke(self):
        prof = SamplingProfiler(interval=0.001)
        with prof:
            x = 0
            for i in range(200_000):
                x += i
        assert prof.samples >= 0  # may be 0 on a very fast box
        assert isinstance(prof.summary(3), str)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestConfigure:
    def test_configure_partial_update(self):
        before = obs.current_config()
        after = obs.configure(tracing=True)
        assert after.tracing is True
        assert after.metrics == before.metrics

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(TypeError):
            obs.configure(trace_capacity=16)  # one ring, sized by tracing

    def test_capacity_follows_config(self, monkeypatch):
        recorder = FlightRecorder()
        monkeypatch.setattr(flightrec, "_global_recorder", recorder)
        assert recorder.capacity == flightrec.DEFAULT_CAPACITY == 512
        obs.configure(tracing=True)
        assert recorder.capacity == flightrec.RING_CAPACITY == 4096
        obs.configure(tracing=False)  # never shrinks: spans survive
        assert recorder.capacity == flightrec.RING_CAPACITY


# ----------------------------------------------------------------------
# Streaming quantiles
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_interpolated_median(self):
        from repro.obs.metrics import histogram_quantile

        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            h.observe(value)
        snap = h.value()
        # rank 2 of 4 falls at the boundary of the (1, 2] bucket.
        assert histogram_quantile(snap, 0.5) == pytest.approx(2.0)
        assert h.quantile(0.5) == pytest.approx(2.0)

    def test_uniform_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(10.0,))
        for _ in range(4):
            h.observe(5.0)
        # All mass in (0, 10]: p50 interpolates to the bucket midpoint.
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_overflow_clamps_to_top_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(1.0)

    def test_empty_histogram_nan(self):
        import math

        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5))

    def test_invalid_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(1.0,))
        with pytest.raises(ObsError):
            h.quantile(1.5)

    def test_quantiles_batch(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "help", buckets=(1.0, 2.0))
        h.observe(0.5)
        out = h.quantiles((0.5, 0.99))
        assert set(out) == {0.5, 0.99}

    def test_labeled_series_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "help", labels=("op",), buckets=(1.0, 2.0))
        h.labels(op="a").observe(0.5)
        h.labels(op="b").observe(1.5)
        assert h.labels(op="a").quantile(0.5) <= 1.0
        assert h.labels(op="b").quantile(0.5) > 1.0

    def test_render_summary_shows_service_quantiles(self):
        record_request("distance", 0.002, True)
        record_request("distance", 0.004, True)
        text = obs.render_summary()
        assert "latency distance" in text
        assert "p50" in text and "p95" in text and "p99" in text
