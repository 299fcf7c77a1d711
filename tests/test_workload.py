"""Tests for workload characterization (repro.obs.workload)."""

import io
import math

import pytest

from repro.core.index import PLLIndex
from repro.obs.qlog import QueryLogRecorder, read_qlog, recording
from repro.obs.workload import (
    WORKLOAD_SCHEMA,
    characterize,
    exact_quantile,
    fit_zipf,
    render_workload,
    simulate_cache_curve,
)
from repro.service import DistanceOracle


def record(s, t, latency=10.0, op="distance", hit=False, outcome="ok"):
    return {
        "op": op,
        "s": s,
        "t": t,
        "latency_us": latency,
        "cache_hit": hit,
        "outcome": outcome,
    }


class TestFitZipf:
    def test_recovers_known_exponent(self):
        alpha = 1.2
        counts = [
            int(round(100000 * rank**-alpha)) for rank in range(1, 101)
        ]
        fitted, r2 = fit_zipf(counts)
        assert fitted == pytest.approx(alpha, abs=0.05)
        assert r2 > 0.99

    def test_constant_counts_have_no_slope(self):
        # A flat curve is a perfect alpha=0 power law.
        alpha, r2 = fit_zipf([5, 5, 5, 5])
        assert alpha == 0.0 and r2 == 1.0

    def test_too_few_items(self):
        assert fit_zipf([7]) == (0.0, 0.0)
        assert fit_zipf([]) == (0.0, 0.0)
        # Zero counts are dropped before ranking.
        assert fit_zipf([7, 0]) == (0.0, 0.0)


class TestCacheCurve:
    def test_known_hit_rates(self):
        # Sequence: a b a b with symmetric-key canonicalization.
        pairs = [(0, 1), (2, 3), (1, 0), (3, 2)]
        curve = dict(simulate_cache_curve(pairs, sizes=(1, 2)))
        # size 1: a b evicts a, then a misses, b... -> 0 hits
        assert curve[1] == 0.0
        # size 2: both residents, the two repeats hit.
        assert curve[2] == 0.5

    def test_clipped_at_unique_pairs(self):
        pairs = [(0, 1), (0, 2), (0, 3)]
        curve = simulate_cache_curve(pairs, sizes=(1, 2, 1000, 4000))
        assert [size for size, _ in curve] == [1, 2, 3]

    def test_empty(self):
        assert simulate_cache_curve([]) == []


class TestExactQuantile:
    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(values, 0.0) == 1.0
        assert exact_quantile(values, 1.0) == 4.0
        assert exact_quantile(values, 0.5) == pytest.approx(2.5)

    def test_empty_is_nan(self):
        assert math.isnan(exact_quantile([], 0.5))


class TestCharacterize:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            characterize([])

    def test_report_contents(self):
        records = (
            [record(0, 1, latency=10.0, hit=True)] * 6
            + [record(0, 2, latency=20.0)] * 3
            + [record(3, 4, latency=100.0, op="batch", outcome="unreachable")]
        )
        report = characterize(records, top=2)
        assert report["schema"] == WORKLOAD_SCHEMA
        assert report["records"] == 10
        assert report["ops"] == {"batch": 1, "distance": 9}
        assert report["outcomes"] == {"ok": 9, "unreachable": 1}
        assert report["unique_pairs"] == 3
        assert report["unique_vertices"] == 5
        assert report["observed_cache_hit_rate"] == pytest.approx(0.6)
        assert report["hot_pairs"][0] == [0, 1, 6]
        assert report["hot_vertices"][0] == [0, 9]
        assert len(report["hot_pairs"]) == 2
        assert report["latency_us"]["max"] == 100.0
        assert report["latency_us"]["p50"] == pytest.approx(10.0)

    def test_symmetric_pairs_merge(self):
        report = characterize([record(1, 5), record(5, 1)])
        assert report["unique_pairs"] == 1
        assert report["hot_pairs"] == [[1, 5, 2]]

    def test_cache_curve_in_report(self):
        records = [record(0, 1)] * 4 + [record(0, 2)] * 2
        report = characterize(records, cache_sizes=(1,))
        curve = dict(
            (size, rate) for size, rate in report["cache_curve"]
        )
        assert set(curve) == {1, 2}
        assert curve[2] == pytest.approx(4 / 6)

    def test_render(self):
        records = [record(0, 1)] * 3 + [record(2, 3)]
        text = render_workload(characterize(records))
        assert "workload: 4 records" in text
        assert "zipf fit" in text
        assert "cache curve" in text
        assert "hot pairs" in text


class TestEndToEnd:
    def test_capture_then_characterize(self):
        from repro.generators.random_graphs import gnm_random_graph

        index = PLLIndex.build(gnm_random_graph(30, 70, seed=3))
        oracle = DistanceOracle(index)
        sink = io.StringIO()
        with recording(QueryLogRecorder(sample=1.0, sink=sink)):
            for _ in range(3):
                oracle.distance(0, 5)
            oracle.batch([(1, 2), (3, 4)])
        report = characterize(read_qlog(sink.getvalue().splitlines()))
        assert report["records"] == 5
        assert report["ops"] == {"batch": 2, "distance": 3}
        # Two of the three repeats of (0, 5) hit the LRU.
        assert report["observed_cache_hit_rate"] == pytest.approx(0.4)
        assert report["hot_pairs"][0][:2] == [0, 5]
