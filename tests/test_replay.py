"""Tests for deterministic traffic replay (repro.service.replay)."""

import io

import pytest

from repro.core.index import PLLIndex
from repro.errors import ReproError
from repro.obs.slo import SLOTarget
from repro.service import (
    REPLAY_SCHEMA,
    DistanceOracle,
    DistanceServer,
    ReplayConfig,
    generate_requests,
    render_replay,
    run_replay,
)
from repro.service.replay import _arrival_offsets


@pytest.fixture(scope="module")
def oracle():
    from repro.generators.random_graphs import gnm_random_graph

    graph = gnm_random_graph(40, 100, seed=7)
    return DistanceOracle(PLLIndex.build(graph))


class TestConfig:
    def test_defaults_valid(self):
        config = ReplayConfig()
        assert config.mode == "closed" and config.source == "zipf"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sideways"},
            {"source": "tea-leaves"},
            {"requests": 0},
            {"clients": 0},
            {"mode": "open", "rate": 0.0},
            {"zipf_alpha": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReplayConfig(**kwargs)


class TestGenerateRequests:
    def test_pure_function_of_seed(self):
        config = ReplayConfig(requests=200, seed=5)
        a = generate_requests(config, 40)
        b = generate_requests(config, 40)
        assert a == b
        different = generate_requests(
            ReplayConfig(requests=200, seed=6), 40
        )
        assert a != different

    def test_no_self_pairs(self):
        for source in ("zipf", "uniform"):
            config = ReplayConfig(requests=300, source=source, seed=1)
            assert all(s != t for s, t in generate_requests(config, 5))

    def test_zipf_is_skewed_uniform_is_not(self):
        from collections import Counter

        n = 200
        zipf = generate_requests(
            ReplayConfig(requests=2000, source="zipf", seed=2), n
        )
        uniform = generate_requests(
            ReplayConfig(requests=2000, source="uniform", seed=2), n
        )

        def top_share(pairs):
            counts = Counter(v for pair in pairs for v in pair)
            top = sum(c for _, c in counts.most_common(5))
            return top / (2 * len(pairs))

        assert top_share(zipf) > 2 * top_share(uniform)

    def test_qlog_source_cycles_capture(self):
        records = [{"s": 1, "t": 2}, {"s": 3, "t": 4}]
        config = ReplayConfig(requests=5, source="qlog")
        pairs = generate_requests(config, 10, qlog_records=records)
        assert pairs == [(1, 2), (3, 4), (1, 2), (3, 4), (1, 2)]

    def test_qlog_source_needs_records(self):
        with pytest.raises(ReproError):
            generate_requests(ReplayConfig(source="qlog"), 10)

    def test_tiny_id_space_rejected(self):
        with pytest.raises(ReproError):
            generate_requests(ReplayConfig(), 1)

    def test_arrival_offsets_deterministic_and_increasing(self):
        config = ReplayConfig(mode="open", requests=50, rate=100.0, seed=3)
        a = _arrival_offsets(config)
        b = _arrival_offsets(config)
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))
        # Mean inter-arrival ~ 1/rate.
        assert a[-1] == pytest.approx(50 / 100.0, rel=0.5)


class TestRunReplay:
    def test_exactly_one_target(self, oracle):
        with pytest.raises(ReproError):
            run_replay(ReplayConfig())
        with pytest.raises(ReproError):
            run_replay(
                ReplayConfig(), oracle=oracle, host="127.0.0.1", port=1
            )

    def test_closed_loop_inprocess(self, oracle):
        config = ReplayConfig(requests=200, clients=3, seed=9)
        report = run_replay(config, oracle=oracle)
        assert report["schema"] == REPLAY_SCHEMA
        assert report["target"] == "inprocess"
        assert report["requests"] == 200
        assert report["outcomes"]["ok"] == 200
        assert report["config"]["seed"] == 9
        assert report["throughput_rps"] > 0
        lat = report["latency_us"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert report["verdict"]["pass"] is True
        assert report["slo"]["requests_total"] == 200

    def test_open_loop_reports_rate_and_lag(self, oracle):
        config = ReplayConfig(
            mode="open", requests=60, clients=4, rate=3000.0, seed=1
        )
        report = run_replay(config, oracle=oracle)
        assert report["requests"] == 60
        ol = report["open_loop"]
        assert ol["target_rate"] == 3000.0
        assert ol["achieved_rate"] > 0
        assert ol["max_lag_seconds"] >= 0.0

    def test_breached_verdict(self, oracle):
        impossible = SLOTarget(
            name="latency_1ns",
            kind="latency",
            objective=0.5,
            threshold_seconds=1e-9,
            window_seconds=60,
        )
        config = ReplayConfig(requests=50, clients=1, seed=4)
        report = run_replay(
            config, oracle=oracle, targets=(impossible,)
        )
        assert report["verdict"]["pass"] is False
        assert report["verdict"]["breached"] == ["latency_1ns"]

    def test_against_live_server(self, oracle):
        with DistanceServer(oracle) as server:
            config = ReplayConfig(requests=80, clients=2, seed=12)
            report = run_replay(
                config, host="127.0.0.1", port=server.port
            )
        assert report["target"] == f"127.0.0.1:{server.port}"
        assert report["requests"] == 80
        assert report["outcomes"]["ok"] == 80

    def test_qlog_capture_replays(self, oracle):
        from repro.obs.qlog import QueryLogRecorder, read_qlog, recording

        sink = io.StringIO()
        with recording(QueryLogRecorder(sample=1.0, sink=sink)):
            oracle.distance(0, 5)
            oracle.distance(1, 7)
        captured = read_qlog(sink.getvalue().splitlines())
        config = ReplayConfig(requests=6, clients=1, source="qlog")
        report = run_replay(
            config, oracle=oracle, qlog_records=captured
        )
        assert report["requests"] == 6
        assert report["outcomes"]["ok"] == 6

    def test_render(self, oracle):
        config = ReplayConfig(requests=30, clients=1, seed=2)
        text = render_replay(run_replay(config, oracle=oracle))
        assert "replay: 30 requests" in text
        assert "verdict: PASS" in text
        assert "slo latency_p99_50ms" in text
