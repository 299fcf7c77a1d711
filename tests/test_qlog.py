"""Tests for the query-log recorder (repro.obs.qlog)."""

import json

import pytest

from repro import obs
from repro.core.index import PLLIndex
from repro.obs import flightrec, qlog
from repro.obs.metrics import ObsError
from repro.obs.qlog import (
    QLOG_SCHEMA,
    QueryLogRecorder,
    read_qlog,
    record_query,
    recording,
    request_scope,
)
from repro.service import DistanceOracle


@pytest.fixture(scope="module")
def index():
    from repro.generators.random_graphs import gnm_random_graph

    graph = gnm_random_graph(40, 100, seed=7)
    return PLLIndex.build(graph)


@pytest.fixture(autouse=True)
def _clean_recorder():
    qlog.uninstall()
    yield
    qlog.uninstall()


class _Sink(list):
    """An in-memory qlog sink: one parsed record per write."""

    def write(self, line):
        self.append(json.loads(line))

    def flush(self):
        pass


def _sunk(**kwargs):
    """A recorder writing to a fresh :class:`_Sink`, and the sink."""
    sink = _Sink()
    return QueryLogRecorder(sink=sink, **kwargs), sink


class TestRecorder:
    def test_record_fields_and_seq(self):
        rec = QueryLogRecorder()
        first = rec.record("distance", 1, 2, 12.5, cache_hit=True)
        second = rec.record("batch", 3, 4, 7.0, outcome="unreachable")
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["op"] == "distance" and first["cache_hit"] is True
        assert second["outcome"] == "unreachable"
        assert first["req_id"] is None
        assert rec.sampled == 2

    def test_sink_keeps_every_record_in_order(self):
        rec, sink = _sunk()
        for i in range(5):
            assert rec.record("distance", i, i + 1, 1.0) == sink[-1]
        assert [r["s"] for r in sink] == [0, 1, 2, 3, 4]
        assert rec.sampled == 5

    def test_bad_capacity_and_sample(self):
        # The recorder has no ring, so no capacity to set.
        with pytest.raises(TypeError):
            QueryLogRecorder(capacity=3)
        with pytest.raises(ValueError):
            QueryLogRecorder(sample=1.5)

    def test_sampling_extremes(self):
        all_of_it = QueryLogRecorder(sample=1.0)
        none_of_it = QueryLogRecorder(sample=0.0)
        assert all(all_of_it.should_sample() for _ in range(50))
        assert not any(none_of_it.should_sample() for _ in range(50))

    def test_sampling_deterministic_for_seed(self):
        a = QueryLogRecorder(sample=0.3, seed=11)
        b = QueryLogRecorder(sample=0.3, seed=11)
        decisions_a = [a.should_sample() for _ in range(200)]
        decisions_b = [b.should_sample() for _ in range(200)]
        assert decisions_a == decisions_b
        assert 20 < sum(decisions_a) < 100  # roughly 30%

    def test_clear_restarts_sampler(self):
        def serve(rec, sink):
            start = len(sink)
            with recording(rec):
                for i in range(1000):
                    record_query("distance", i, i + 1, 1.0)
            return rec.sampled, [r["s"] for r in sink[start:]]

        fresh = serve(*_sunk(sample=0.05, seed=3))
        reused, sink = _sunk(sample=0.05, seed=3)
        serve(reused, sink)
        reused.clear()
        assert reused.sampled == 0
        assert serve(reused, sink) == fresh

    def test_sample_follows_live_config_knob(self):
        rec = QueryLogRecorder()  # no override -> reads the knob
        try:
            obs.configure(qlog_sample=0.0)
            assert rec.sample == 0.0
            assert not rec.should_sample()
            obs.configure(qlog_sample=1.0)
            assert rec.should_sample()
        finally:
            obs.configure(qlog_sample=1.0)

    def test_configure_rejects_bad_fraction(self):
        with pytest.raises(Exception):
            obs.configure(qlog_sample=2.0)


class TestDumpAndSink:
    def test_write_jsonl_read_roundtrip(self, tmp_path):
        rec = QueryLogRecorder()
        records = [
            rec.record("distance", 0, 1, 3.0),
            rec.record("batch", 2, 3, 4.0, cache_hit=True),
        ]
        path = str(tmp_path / "cap.qlog")
        # A header-first capture, through the one dump writer.
        assert flightrec.write_dump(path, QLOG_SCHEMA, records) == 2
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["schema"] == QLOG_SCHEMA
        assert header["events"] == 2
        assert read_qlog(path) == records

    def test_read_rejects_foreign_schema(self):
        lines = [json.dumps({"kind": "header", "schema": "other/1"})]
        with pytest.raises(ObsError, match="<lines>:1"):
            read_qlog(lines)

    def test_read_raw_sink_without_header(self, tmp_path):
        path = str(tmp_path / "raw.jsonl")
        rec = QueryLogRecorder(sink=path)
        rec.record("distance", 5, 6, 2.0)
        rec.close()
        records = read_qlog(path)
        assert len(records) == 1 and records[0]["s"] == 5

    def test_sink_sees_every_record_despite_small_ring(self, tmp_path):
        # Sampled records stay off the flight recorder's small ring,
        # whose post-mortem events they would evict at serving rates.
        ring = flightrec.get_recorder()
        before = ring.last_seq
        path = str(tmp_path / "sink.jsonl")
        rec = QueryLogRecorder(sink=path)
        for i in range(ring.capacity + 5):
            rec.record("distance", i, i + 1, 1.0)
        rec.close()
        assert len(read_qlog(path)) == ring.capacity + 5
        assert ring.last_seq == before


class TestInstallation:
    def test_record_query_without_recorder_is_noop(self):
        record_query("distance", 0, 1, 1.0)  # must not raise

    def test_recording_restores_previous(self):
        outer = qlog.install(QueryLogRecorder())
        inner = QueryLogRecorder()
        with recording(inner):
            assert qlog.active() is inner
            record_query("distance", 0, 1, 1.0)
        assert qlog.active() is outer
        assert inner.sampled == 1 and outer.sampled == 0

    def test_request_scope_nests_and_restores(self):
        assert qlog.current_req_id() is None
        with request_scope(7):
            assert qlog.current_req_id() == 7
            with request_scope(8):
                assert qlog.current_req_id() == 8
            assert qlog.current_req_id() == 7
        assert qlog.current_req_id() is None

    def test_record_query_defaults_req_id_from_scope(self):
        rec, sink = _sunk()
        with recording(rec):
            with request_scope(42):
                record_query("distance", 0, 1, 1.0)
        assert sink[0]["req_id"] == 42

    def test_obs_reset_restarts_active_sampler(self):
        rec = qlog.install(QueryLogRecorder())
        rec.record("distance", 0, 1, 1.0)
        obs.reset()
        assert rec.sampled == 0


class TestOracleIntegration:
    def test_distance_records_miss_then_hit(self, index):
        oracle = DistanceOracle(index)
        rec, sink = _sunk(sample=1.0)
        with recording(rec):
            oracle.distance(0, 5)
            oracle.distance(5, 0)  # symmetric twin -> cache hit
        miss, hit = sink
        assert miss["cache_hit"] is False and miss["entries_scanned"] > 0
        assert hit["cache_hit"] is True
        assert miss["outcome"] == "ok"
        assert miss["latency_us"] > 0.0

    def test_unreachable_outcome(self, two_components):
        oracle = DistanceOracle(PLLIndex.build(two_components))
        rec, sink = _sunk(sample=1.0)
        with recording(rec):
            oracle.distance(0, 2)
        assert sink[0]["outcome"] == "unreachable"

    def test_batch_records_per_pair(self, index):
        oracle = DistanceOracle(index)
        oracle.distance(0, 1)  # prime the cache
        rec, records = _sunk(sample=1.0)
        with recording(rec):
            oracle.batch([(0, 1), (2, 3)])
        assert [r["op"] for r in records] == ["batch", "batch"]
        assert records[0]["cache_hit"] is True
        assert records[1]["cache_hit"] is False

    def test_unsampled_traffic_costs_no_records(self, index):
        oracle = DistanceOracle(index)
        with recording(QueryLogRecorder(sample=0.0)) as rec:
            oracle.distance(0, 5)
            oracle.batch([(1, 2)])
        assert rec.sampled == 0
