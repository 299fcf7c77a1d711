"""Tests for the cross-process telemetry plane (repro.obs.bus/relay).

Covers the event ring and its relay cursor (bounded, non-blocking,
every eviction before shipping counted), the metrics delta encoder,
the histogram-merge property (merging N per-process snapshots equals
observing the concatenated stream in one registry), the in-process and
two-process relay merge semantics, counted loss, the failure modes
(dead collector, partial frame, frames before header) and the
``parapll dash`` / ``parapll obs`` surfaces.
"""

import json
import multiprocessing
import os
import random
import socket
import threading
import time

import pytest

from repro import obs
from repro.obs import buildmon
from repro.obs import bus as bus_mod
from repro.obs import flightrec
from repro.obs.bus import (
    FRAME_KINDS,
    TELEMETRY_SCHEMA,
    MetricsDelta,
    stream_header,
)
from repro.obs.flightrec import FlightRecorder, RingCursor
from repro.obs.metrics import (
    MetricsRegistry,
    ObsError,
    histogram_bucket_counts,
    histogram_quantile,
    merge_histogram_snapshot,
)
from repro.obs.flightrec import RING_CAPACITY
from repro.obs.relay import Collector, RelayClient, render_fleet

BOUNDS = (0.1, 1.0, 10.0)


@pytest.fixture(autouse=True)
def _restore_ring():
    # An attached relay grows the process ring; later tests get it back
    # at its previous size.
    recorder = flightrec.get_recorder()
    capacity = recorder.capacity
    yield
    recorder.set_capacity(capacity)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def wait_disconnected(collector, sources=1, timeout=10.0):
    """Wait until *sources* relay streams have fully drained (EOF seen)."""
    def done():
        stats = collector.stats()
        return len(stats["sources"]) >= sources and not any(
            s["connected"] for s in stats["sources"].values()
        )

    assert wait_until(done, timeout=timeout), collector.stats()


def merged_value(registry, name, labels=None):
    want = {k: str(v) for k, v in (labels or {}).items()}
    for metric in registry.snapshot():
        if metric["name"] != name:
            continue
        for series in metric["series"]:
            if series["labels"] == want:
                return series["value"]
    return None


class _FakeRing:
    """A recorder stand-in whose ring order the test controls."""

    def __init__(self, seqs=()):
        self.events = [{"seq": q, "mono": 0.0} for q in seqs]

    @property
    def last_seq(self):
        return max((e["seq"] for e in self.events), default=0)

    def snapshot(self):
        return list(self.events)


class TestTelemetryBus:
    """The event channel: one bounded ring, read once by a seq cursor."""

    def test_publish_drain_roundtrip(self):
        rec = FlightRecorder(capacity=8)
        cursor = RingCursor(rec)
        rec.record("a", x=1)
        rec.record("b")
        events = cursor.read()
        assert [e["kind"] for e in events] == ["a", "b"]
        assert [e["seq"] for e in events] == [1, 2]
        for event in events:
            assert event["ts"] > 0 and event["mono"] > 0
        assert cursor.read() == []
        assert cursor.dropped == 0
        # The ring itself is untouched: a failure dump still sees both.
        assert len(rec) == 2

    def test_full_ring_evictions_counted(self):
        rec = FlightRecorder(capacity=2)
        cursor = RingCursor(rec)
        for i in range(5):
            rec.record("e", i=i)
        events = cursor.read()
        assert [e["attrs"]["i"] for e in events] == [3, 4]
        assert cursor.dropped == 3
        # Reading frees nothing and resets nothing: drops are cumulative.
        rec.record("e", i=5)
        assert [e["attrs"]["i"] for e in cursor.read()] == [5]
        assert cursor.dropped == 3

    def test_bounded_and_never_blocks_without_reader(self):
        rec = FlightRecorder(capacity=16)
        cursor = RingCursor(rec)
        t0 = time.perf_counter()
        for i in range(10_000):
            rec.record("e", i=i)
        assert time.perf_counter() - t0 < 5.0
        assert len(rec) == 16
        assert len(cursor.read()) == 16
        assert cursor.dropped == 10_000 - 16

    def test_cursor_starts_after_existing_events(self):
        rec = FlightRecorder(capacity=4)
        rec.record("before")
        rec.record("before")
        rec.clear()  # seq keeps counting across a clear
        rec.record("before")
        cursor = RingCursor(rec)
        rec.record("after")
        (event,) = cursor.read()
        assert event["kind"] == "after" and event["seq"] == 4
        assert cursor.dropped == 0

    def test_cursor_handles_out_of_order_appends(self):
        # Two threads can append seqs out of order: seq 2 lands after 3.
        ring = _FakeRing()
        cursor = RingCursor(ring)
        ring.events = [{"seq": 1, "mono": 0.0}, {"seq": 3, "mono": 0.0}]
        assert [e["seq"] for e in cursor.read()] == [1, 3]
        ring.events.append({"seq": 2, "mono": 0.0})
        assert [e["seq"] for e in cursor.read()] == [2]
        assert cursor.read() == []
        # A hole evicted before any read saw it is a drop, counted once.
        ring.events = [{"seq": 5, "mono": 0.0}, {"seq": 6, "mono": 0.0}]
        assert [e["seq"] for e in cursor.read()] == [5, 6]
        assert cursor.dropped == 1
        ring.events = [{"seq": 6, "mono": 0.0}, {"seq": 4, "mono": 0.0}]
        assert cursor.read() == []
        assert cursor.dropped == 1

    def test_lag_high_watermark_uses_monotonic(self, monkeypatch):
        with Collector(registry=MetricsRegistry()) as collector:
            client = RelayClient(
                collector.host,
                collector.port,
                registry=MetricsRegistry(),
                flush_interval=60.0,  # flush manually below
            )
            flightrec.record("lagged")
            # Step the wall clock a year backwards: lag must not explode
            # (or go negative), because it is derived from mono only.
            monkeypatch.setattr(time, "time", lambda: 1.0)
            time.sleep(0.02)
            client.flush()
            monkeypatch.undo()
            client.close()
            wait_disconnected(collector)
            (source,) = collector.stats()["sources"].values()
            assert 0.02 <= source["max_lag_seconds"] < 5.0

    def test_header_identifies_process(self):
        header = stream_header(rank=3, capacity=7)
        assert header["kind"] == "header"
        assert header["schema"] == TELEMETRY_SCHEMA == "parapll-telemetry/3"
        assert header["pid"] == os.getpid()
        assert header["rank"] == 3 and header["capacity"] == 7
        assert FRAME_KINDS == ("metrics", "events")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder().set_capacity(0)

    def test_relay_grows_the_ring(self):
        recorder = flightrec.get_recorder()
        recorder.set_capacity(flightrec.DEFAULT_CAPACITY)
        with Collector(registry=MetricsRegistry()) as collector:
            client = RelayClient(
                collector.host, collector.port, registry=MetricsRegistry()
            )
            client.close()
        assert recorder.capacity == RING_CAPACITY > flightrec.DEFAULT_CAPACITY

    def test_publish_event_hook(self):
        # Kept only as a name for external tracers: it is the recorder.
        assert bus_mod.publish_event is flightrec.record
        cursor = RingCursor(flightrec.get_recorder())
        bus_mod.publish_event("label_commit", worker=2, root=5)
        (event,) = cursor.read()
        assert event["kind"] == "label_commit"
        assert event["attrs"] == {"worker": 2, "root": 5}
        assert event["thread"]


class TestCountedLoss:
    """Every event recorded after attach is delivered or counted."""

    def test_overflow_between_flushes_is_counted(self):
        recorder = flightrec.get_recorder()
        with Collector(registry=MetricsRegistry()) as collector:
            client = RelayClient(
                collector.host,
                collector.port,
                registry=MetricsRegistry(),
                flush_interval=60.0,  # no periodic flush in between
            )
            first = recorder.last_seq + 1
            for i in range(recorder.capacity + 1000):
                flightrec.record("loss_probe", i=i)
            recorded = recorder.last_seq - first + 1
            client.close()
            wait_disconnected(collector)
            delivered = len(collector.events())
            dropped = collector.stats()["dropped"]
        assert dropped > 0
        assert delivered + dropped == recorded

    def test_open_span_survives_ring_wrap(self, monkeypatch):
        """A span takes its seq when it closes: an outer span open while
        the ring wraps still ships, and only real evictions count."""
        recorder = FlightRecorder(capacity=16)
        monkeypatch.setattr(flightrec, "_global_recorder", recorder)
        monkeypatch.setattr(flightrec, "RING_CAPACITY", 16)
        obs.configure(tracing=True)
        try:
            with Collector(registry=MetricsRegistry()) as collector:
                client = RelayClient(
                    collector.host,
                    collector.port,
                    registry=MetricsRegistry(),
                    flush_interval=60.0,  # flush manually below
                )
                with obs.span("build_serial"):
                    # Wrap the ring three times, shipping in time.
                    for _ in range(5):
                        for i in range(10):
                            flightrec.record("inner", i=i)
                        client.flush()
                    # Then overflow it between two flushes.
                    for i in range(40):
                        flightrec.record("flood", i=i)
                client.close()
                wait_disconnected(collector)
                kinds = [e["kind"] for e in collector.events()]
                dropped = collector.stats()["dropped"]
        finally:
            obs.configure(tracing=False)
        assert recorder.capacity == 16
        assert kinds.count("build_serial") == 1
        assert kinds.count("inner") == 50
        # 40 floods + the span after the last flush, 16 slots: 25 gone.
        assert kinds.count("flood") == 15
        assert dropped == 40 + 1 - 16

class TestMetricsDelta:
    def test_counter_deltas_and_reset_detection(self):
        reg = MetricsRegistry()
        ctr = reg.counter("d_total", "d")
        delta = MetricsDelta(reg)
        ctr.inc(5)
        # First collection ships the full cumulative value.
        (entry,) = delta.collect()
        assert entry["kind"] == "counter" and entry["delta"] == 5.0
        ctr.inc(2)
        (entry,) = delta.collect()
        assert entry["delta"] == 2.0
        assert delta.collect() == []  # unchanged series are skipped
        reg.reset()
        ctr.inc(3)
        (entry,) = delta.collect()
        assert entry["delta"] == 3.0  # post-reset value, not negative

    def test_gauge_ships_value_on_change_only(self):
        reg = MetricsRegistry()
        g = reg.gauge("d_gauge", "d")
        delta = MetricsDelta(reg)
        g.set(1.5)
        (entry,) = delta.collect()
        assert entry["kind"] == "gauge" and entry["value"] == 1.5
        assert delta.collect() == []
        g.set(2.5)
        (entry,) = delta.collect()
        assert entry["value"] == 2.5

    def test_histogram_bucket_deltas(self):
        reg = MetricsRegistry()
        h = reg.histogram("d_hist", "d", buckets=BOUNDS)
        delta = MetricsDelta(reg)
        h.observe(0.05)
        h.observe(5.0)
        (entry,) = delta.collect()
        d = entry["delta"]
        assert d["bounds"] == list(BOUNDS)
        assert d["counts"] == [1, 0, 1, 0]  # per-bucket, +Inf last
        assert d["count"] == 2 and d["sum"] == pytest.approx(5.05)
        h.observe(100.0)  # beyond the top bound -> +Inf bucket
        (entry,) = delta.collect()
        assert entry["delta"]["counts"] == [0, 0, 0, 1]
        reg.reset()
        h.observe(0.5)
        (entry,) = delta.collect()
        assert entry["delta"]["counts"] == [0, 1, 0, 0]

    def test_labeled_series_carry_labels(self):
        reg = MetricsRegistry()
        ctr = reg.counter("d_ops_total", "d", labels=("op",))
        ctr.labels(op="a").inc(1)
        ctr.labels(op="b").inc(2)
        delta = MetricsDelta(reg)
        entries = {e["labels"]["op"]: e["delta"] for e in delta.collect()}
        assert entries == {"a": 1.0, "b": 2.0}


class TestHistogramMergeProperty:
    """Satellite: merging N per-process snapshots == one registry."""

    N_SOURCES = 4
    PER_SOURCE = 250

    def _streams(self):
        rng = random.Random(20260808)
        # Log-uniform values spanning below, across and beyond the
        # bucket bounds (so the +Inf bucket is exercised).
        return [
            [10.0 ** rng.uniform(-3, 3) for _ in range(self.PER_SOURCE)]
            for _ in range(self.N_SOURCES)
        ]

    def test_merge_equals_concatenated_stream(self):
        streams = self._streams()
        # N "processes", one histogram each.
        snapshots = []
        for stream in streams:
            reg = MetricsRegistry()
            h = reg.histogram("m_hist", "m", buckets=BOUNDS)
            for value in stream:
                h.observe(value)
            snapshots.append(h.value())
        # The reference: one registry observing the concatenation.
        ref_reg = MetricsRegistry()
        ref = ref_reg.histogram("m_hist", "m", buckets=BOUNDS)
        for stream in streams:
            for value in stream:
                ref.observe(value)
        # The merge under test.
        merged_reg = MetricsRegistry()
        merged = merged_reg.histogram("m_hist", "m", buckets=BOUNDS)
        for snap in snapshots:
            merge_histogram_snapshot(merged, snap)

        got, want = merged.value(), ref.value()
        assert got["count"] == want["count"] == (
            self.N_SOURCES * self.PER_SOURCE
        )
        assert got["buckets"] == want["buckets"]  # cumulative, exact
        assert got["buckets"][-1][0] == "+Inf"
        assert got["buckets"][-1][1] == got["count"]
        assert got["sum"] == pytest.approx(want["sum"], rel=1e-12)
        # Quantiles agree to bucket resolution: both are reconstructed
        # from identical bucket counts, so they agree exactly.
        for q in (0.5, 0.9, 0.95, 0.99):
            assert histogram_quantile(got, q) == histogram_quantile(
                want, q
            )

    def test_merge_is_order_independent(self):
        streams = self._streams()
        snapshots = []
        for stream in streams:
            reg = MetricsRegistry()
            h = reg.histogram("m_hist", "m", buckets=BOUNDS)
            for value in stream:
                h.observe(value)
            snapshots.append(h.value())
        forward = MetricsRegistry().histogram("m", "m", buckets=BOUNDS)
        backward = MetricsRegistry().histogram("m", "m", buckets=BOUNDS)
        for snap in snapshots:
            merge_histogram_snapshot(forward, snap)
        for snap in reversed(snapshots):
            merge_histogram_snapshot(backward, snap)
        assert forward.value()["buckets"] == backward.value()["buckets"]
        assert forward.value()["sum"] == pytest.approx(
            backward.value()["sum"], rel=1e-12
        )

    def test_labeled_series_merge_per_label(self):
        source = MetricsRegistry().histogram(
            "m_hist", "m", buckets=BOUNDS, labels=("op",)
        )
        source.labels(op="a").observe(0.5)
        source.labels(op="a").observe(2.0)
        source.labels(op="b").observe(50.0)
        target = MetricsRegistry().histogram(
            "m_hist", "m", buckets=BOUNDS, labels=("op",)
        )
        for _key, series in source.series_items():
            labels = dict(zip(source.label_names, _key))
            merge_histogram_snapshot(
                target.labels(**labels), series.value()
            )
        assert target.labels(op="a").value()["count"] == 2
        assert target.labels(op="b").value()["count"] == 1
        assert target.labels(op="b").value()["buckets"][-1][1] == 1

    def test_bounds_mismatch_rejected(self):
        a = MetricsRegistry().histogram("m", "m", buckets=BOUNDS)
        b = MetricsRegistry().histogram("m", "m", buckets=(1.0, 2.0))
        b.observe(1.5)
        with pytest.raises(ObsError):
            merge_histogram_snapshot(a, b.value())

    def test_bucket_counts_invert_cumulative(self):
        h = MetricsRegistry().histogram("m", "m", buckets=BOUNDS)
        for value in (0.05, 0.5, 0.5, 5.0, 500.0):
            h.observe(value)
        assert histogram_bucket_counts(h.value()) == [1, 2, 1, 1]


class TestRelayInProcess:
    """Client + collector in one process, on private registries.

    The collector must merge into a registry the clients do *not* diff
    — otherwise every merged increment would be re-shipped forever (the
    feedback loop documented in repro.obs.relay).
    """

    def _client(self, collector, rank, registry):
        return RelayClient(
            collector.host,
            collector.port,
            rank=rank,
            registry=registry,
            flush_interval=0.05,
        )

    def test_counters_sum_across_sources(self):
        with Collector(registry=MetricsRegistry()) as collector:
            regs = [MetricsRegistry(), MetricsRegistry()]
            for rank, reg in enumerate(regs):
                reg.counter("fleet_total", "f").inc(100 + rank)
                reg.counter("fleet_ops_total", "f", labels=("op",)).labels(
                    op="q"
                ).inc(10 * (rank + 1))
                client = self._client(collector, rank, reg)
                client.close()
            wait_disconnected(collector, sources=2)
            assert merged_value(collector.registry, "fleet_total") == 201.0
            assert (
                merged_value(
                    collector.registry, "fleet_ops_total", {"op": "q"}
                )
                == 30.0
            )
            stats = collector.stats()
            assert stats["dropped"] == 0 and stats["malformed"] == 0
            assert stats["merge_errors"] == 0

    def test_histogram_merge_matches_single_registry(self):
        rng = random.Random(7)
        streams = [
            [10.0 ** rng.uniform(-3, 3) for _ in range(200)]
            for _ in range(2)
        ]
        ref = MetricsRegistry().histogram("fleet_lat", "f", buckets=BOUNDS)
        with Collector(registry=MetricsRegistry()) as collector:
            for rank, stream in enumerate(streams):
                reg = MetricsRegistry()
                h = reg.histogram("fleet_lat", "f", buckets=BOUNDS)
                for value in stream:
                    h.observe(value)
                    ref.observe(value)
                client = self._client(collector, rank, reg)
                client.close()
            wait_disconnected(collector, sources=2)
            got = merged_value(collector.registry, "fleet_lat")
            want = ref.value()
            assert got["count"] == want["count"] == 400
            assert got["buckets"] == want["buckets"]
            assert got["sum"] == pytest.approx(want["sum"], rel=1e-9)
            for q in (0.5, 0.99):
                assert histogram_quantile(got, q) == histogram_quantile(
                    want, q
                )

    def test_gauge_last_write_wins_with_attribution(self):
        with Collector(registry=MetricsRegistry()) as collector:
            for rank, value in ((0, 1.0), (1, 2.0)):
                reg = MetricsRegistry()
                reg.gauge("fleet_gauge", "f").set(value)
                client = self._client(collector, rank, reg)
                client.close()
                wait_disconnected(collector, sources=rank + 1)
            assert merged_value(collector.registry, "fleet_gauge") == 2.0
            attribution = collector.gauge_attribution()
            assert attribution["fleet_gauge"].startswith("r1/")

    def test_events_and_span_stitching(self):
        obs.configure(tracing=True)
        try:
            with Collector(registry=MetricsRegistry()) as collector:
                reg = MetricsRegistry()
                client = RelayClient(
                    collector.host,
                    collector.port,
                    rank=5,
                    registry=reg,
                    flush_interval=0.05,
                )
                with obs.span("root_search", worker=3, root=17):
                    pass
                flightrec.record("label_commit", worker=3, root=17)
                client.close()
                wait_disconnected(collector)
                events = collector.events()
                # The span closed before the commit was recorded, so it
                # took the lower seq: one stream, in ring order.
                assert [e["kind"] for e in events] == [
                    "root_search", "label_commit"
                ]
                span, commit = events
                assert span["dur"] >= 0 and span["span_id"] >= 1
                assert span["attrs"]["pid"] == os.getpid()
                assert span["attrs"]["rank"] == 5
                # Lanes are namespaced by source so two processes'
                # "worker 3" stay separate in the stitched trace.
                source = f"r5/pid{os.getpid()}"
                assert span["attrs"]["worker"] == f"{source}:3"
                assert span["thread"].startswith(f"{source}:")
                assert commit["attrs"]["rank"] == 5
                assert commit["attrs"]["worker"] == f"{source}:3"
                assert {e["source"] for e in events} == {source}
        finally:
            obs.configure(tracing=False)
            flightrec.get_recorder().clear()

    def test_telemetry_health_in_obs_summary(self):
        with Collector(registry=MetricsRegistry()) as collector:
            reg = MetricsRegistry()
            reg.counter("fleet_total", "f").inc(1)
            client = self._client(collector, 0, reg)
            client.close()
            wait_disconnected(collector)
            summary = obs.render_summary(collector.registry)
            assert "telemetry:" in summary
            line = next(
                l for l in summary.splitlines() if "frames" in l
            )
            assert f"r0/pid{os.getpid()}" in line
            assert "dropped 0" in line and "max queue lag" in line

    def test_render_fleet_shows_sources_and_drop_warning(self):
        with Collector(registry=MetricsRegistry()) as collector:
            frame = render_fleet(collector)
            assert "(no sources connected)" in frame
            reg = MetricsRegistry()
            reg.counter("fleet_total", "f").inc(1)
            client = RelayClient(
                collector.host,
                collector.port,
                rank=0,
                registry=reg,
                flush_interval=60.0,  # flush manually below
            )
            # Overflow the ring between two flushes: real evictions.
            client.flush()
            for _ in range(flightrec.get_recorder().capacity + 3):
                flightrec.record("flood")
            client.flush()
            client.close()
            wait_disconnected(collector)
            frame = render_fleet(collector)
            assert f"r0/pid{os.getpid()}" in frame
            assert "WARNING" in frame and "dropped" in frame
            assert collector.stats()["dropped"] == 3

    def test_render_fleet_build_line_from_progress_events(self):
        with Collector(registry=MetricsRegistry()) as collector:
            client = self._client(collector, 0, MetricsRegistry())
            monitor = buildmon.BuildMonitor(
                total_roots=4, interval_seconds=None
            )
            with buildmon.monitored(monitor):
                for root in range(4):
                    buildmon.report_root(0, root, labels=2)
            # The final snapshot is recorded on scope exit; close()
            # ships it even though no periodic flush ran.
            client.close()
            wait_disconnected(collector)
            progress = collector.progress[f"r0/pid{os.getpid()}"]
            assert progress["roots_done"] == 4 and progress["final"]
            assert "roots_per_second" in progress
            frame = render_fleet(collector)
            assert "4/4 roots" in frame and "done" in frame


def _fleet_child(host, port, rank):
    """Two-process integration child: known metrics, spans, events."""
    obs.reset()
    obs.configure(tracing=True)
    registry = obs.get_registry()
    registry.counter("fleet_total", "f").inc(100 + rank)
    h = registry.histogram("fleet_lat", "f", buckets=BOUNDS)
    for i in range(50):
        h.observe(0.01 * (i + 1) * (rank + 1))
    client = RelayClient(host, port, rank=rank, flush_interval=0.05)
    try:
        with obs.span("root_search", worker=rank, root=7):
            pass
        flightrec.record("label_commit", worker=rank, root=7)
    finally:
        client.close()


class TestTwoProcessIntegration:
    def test_merges_exact_and_spans_attributed(self, tmp_path):
        ref = MetricsRegistry().histogram("fleet_lat", "f", buckets=BOUNDS)
        for rank in range(2):
            for i in range(50):
                ref.observe(0.01 * (i + 1) * (rank + 1))
        with Collector(registry=MetricsRegistry()) as collector:
            children = [
                multiprocessing.Process(
                    target=_fleet_child,
                    args=(collector.host, collector.port, rank),
                )
                for rank in range(2)
            ]
            for child in children:
                child.start()
            for child in children:
                child.join(timeout=60.0)
                assert child.exitcode == 0
            wait_disconnected(collector, sources=2)

            # Counter merge is exact: 100 + 101.
            assert merged_value(collector.registry, "fleet_total") == 201.0
            # Histogram merge equals one registry observing both
            # streams (counts and buckets exact).
            got = merged_value(collector.registry, "fleet_lat")
            want = ref.value()
            assert got["count"] == want["count"] == 100
            assert got["buckets"] == want["buckets"]
            assert got["sum"] == pytest.approx(want["sum"], rel=1e-9)

            # Spans arrive pid/rank-attributed from both children.
            spans = [
                e for e in collector.events() if e["kind"] == "root_search"
            ]
            assert {e["attrs"]["rank"] for e in spans} == {0, 1}
            child_pids = {c.pid for c in children}
            assert {e["attrs"]["pid"] for e in spans} == child_pids

            # Each child's span and event arrive once, from its own
            # source, in one stream.
            by_source = {}
            for event in collector.events():
                by_source.setdefault(event["source"], []).append(
                    event["kind"]
                )
            assert sorted(by_source.values()) == [
                ["root_search", "label_commit"]
            ] * 2

            # ... and land in ONE stitched Chrome trace.
            trace_path = tmp_path / "fleet.trace.json"
            count = collector.write_chrome_trace(str(trace_path))
            assert count > 0
            doc = json.loads(trace_path.read_text())
            named = [
                e
                for e in doc["traceEvents"]
                if e.get("name") == "root_search"
            ]
            assert {e["args"]["rank"] for e in named} == {0, 1}
            assert {e["args"]["pid"] for e in named} == child_pids

            # Healthy fleet: nothing dropped, nothing malformed.
            stats = collector.stats()
            assert stats["dropped"] == 0
            assert stats["malformed"] == 0
            assert stats["merge_errors"] == 0
            assert stats["frames"] > 0


class TestFailureModes:
    def test_collector_close_is_prompt_and_leaves_no_thread(self):
        collector = Collector(registry=MetricsRegistry()).start()
        client = RelayClient(collector.host, collector.port, rank=0)
        client.close()
        t0 = time.perf_counter()
        collector.close()
        assert time.perf_counter() - t0 < 1.0
        names = [t.name for t in threading.enumerate()]
        assert "telemetry-collector" not in names

    def test_dead_collector_marks_client_dead(self):
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        reg = MetricsRegistry()
        ctr = reg.counter("fleet_total", "f")
        client = RelayClient(
            host,
            port,
            rank=0,
            registry=reg,
            flush_interval=60.0,  # flush manually below
        )
        conn, _ = listener.accept()
        conn.close()
        listener.close()
        # The first send after the peer dies can still land in the
        # kernel buffer; keep flushing until the failure surfaces.
        def flush_until_dead():
            ctr.inc()
            client.flush()
            return client.dead

        assert wait_until(flush_until_dead, timeout=10.0)
        assert client.send_failures >= 1
        # Producers keep recording into the ring; nothing is shipped.
        flightrec.record("after_death")
        assert client.flush() == 0  # dead clients stay quiet
        client.close()

    def test_partial_frame_counted_rest_merged(self):
        with Collector(registry=MetricsRegistry()) as collector:
            sock = socket.create_connection(
                (collector.host, collector.port), timeout=5.0
            )
            header = json.dumps(
                {
                    "kind": "header",
                    "schema": TELEMETRY_SCHEMA,
                    "pid": 999,
                    "rank": 0,
                    "capacity": 8,
                }
            )
            good = json.dumps(
                {
                    "kind": "metrics",
                    "seq": 1,
                    "ts": 1.0,
                    "mono": 1.0,
                    "payload": [
                        {
                            "name": "fleet_total",
                            "kind": "counter",
                            "help": "f",
                            "labels": {},
                            "delta": 7,
                        }
                    ],
                }
            )
            # A child died mid-write: a truncated JSON line between two
            # valid frames.
            sock.sendall(
                (header + "\n" + '{"kind": "metr' + "\n" + good + "\n").encode()
            )
            sock.close()
            wait_disconnected(collector)
            assert collector.stats()["malformed"] == 1
            assert merged_value(collector.registry, "fleet_total") == 7.0

    def test_frames_before_header_counted_malformed(self):
        with Collector(registry=MetricsRegistry()) as collector:
            sock = socket.create_connection(
                (collector.host, collector.port), timeout=5.0
            )
            sock.sendall(
                json.dumps(
                    {"kind": "events", "seq": 1, "payload": {"name": "x"}}
                ).encode()
                + b"\n"
            )
            sock.close()
            assert wait_until(
                lambda: collector.stats()["malformed"] == 1
            ), collector.stats()
            assert collector.stats()["sources"] == {}

    def test_non_object_lines_counted_reader_survives(self):
        with Collector(registry=MetricsRegistry()) as collector:
            sock = socket.create_connection(
                (collector.host, collector.port), timeout=5.0
            )
            header = {
                "kind": "header",
                "schema": TELEMETRY_SCHEMA,
                "pid": 997,
                "rank": None,
                "capacity": 8,
            }
            good = {
                "kind": "events",
                "seq": 3,
                "payload": [
                    {"seq": 1, "mono": 1.0, "kind": "label_commit",
                     "thread": "t", "attrs": {"root": 4}},
                ],
            }
            lines = [
                header,
                [1, 2],  # valid JSON, not an object
                {"kind": ["events"], "seq": 2, "payload": []},
                good,
            ]
            sock.sendall(
                "".join(json.dumps(doc) + "\n" for doc in lines).encode()
            )
            sock.close()
            wait_disconnected(collector)
            assert collector.stats()["malformed"] == 2
            (event,) = collector.events()
            assert event["kind"] == "label_commit"
            assert event["source"] == "pid997"

    def test_unknown_frame_kind_counted(self):
        with Collector(registry=MetricsRegistry()) as collector:
            sock = socket.create_connection(
                (collector.host, collector.port), timeout=5.0
            )
            header = {
                "kind": "header",
                "schema": TELEMETRY_SCHEMA,
                "pid": 998,
                "rank": None,
                "capacity": 8,
            }
            bogus = {"kind": "unknown-kind", "seq": 1, "payload": {}}
            sock.sendall(
                (json.dumps(header) + "\n" + json.dumps(bogus) + "\n").encode()
            )
            sock.close()
            wait_disconnected(collector)
            assert collector.stats()["malformed"] == 1

    def test_conflicting_series_counted_as_merge_error(self):
        with Collector(registry=MetricsRegistry()) as collector:
            # Source A registers fleet_lat with one bucket layout ...
            reg_a = MetricsRegistry()
            reg_a.histogram("fleet_lat", "f", buckets=BOUNDS).observe(0.5)
            client = RelayClient(
                collector.host,
                collector.port,
                rank=0,
                registry=reg_a,
                flush_interval=0.05,
            )
            client.close()
            # ... source B ships the same name with different bounds.
            reg_b = MetricsRegistry()
            reg_b.histogram("fleet_lat", "f", buckets=(1.0, 2.0)).observe(
                1.5
            )
            client = RelayClient(
                collector.host,
                collector.port,
                rank=1,
                registry=reg_b,
                flush_interval=0.05,
            )
            client.close()
            wait_disconnected(collector, sources=2)
            assert collector.stats()["merge_errors"] == 1
            # Source A's series survived untouched.
            assert merged_value(collector.registry, "fleet_lat")["count"] == 1


class TestDashCLI:
    def test_dash_once_renders_without_tty(self, capsys):
        from repro.cli import main

        assert main(["dash", "--once", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "telemetry collector listening on" in out
        assert "parapll fleet" in out
        assert "(no sources connected)" in out
