"""The comparison tool: refusals and the gain rule."""

from __future__ import annotations

import pytest

import compare


def _run(workload, pair, value, nproc=2, graph="abc", failed=0):
    return {
        "workload": workload,
        "seed": 100 + pair,
        "pair": pair,
        "correct": failed == 0,
        "attempted": 8,
        "failed": failed,
        "env": {"nproc": nproc, "python": "3.11.7", "numpy": "1.26.4"},
        "fingerprints": {"graph.plaw": graph},
        "metrics": {
            m["name"]: {"value": value if m["name"] == "p50_ms" else 1.0, "unit": m["unit"]}
            for m in compare.load_benchmark()["end_to_end"]
        },
    }


def _side(values, workload="build_serial_plaw", **kw):
    return [_run(workload, i, v, **kw) for i, v in enumerate(values)]


def test_refuses_different_nproc():
    with pytest.raises(compare.Refused, match="nproc"):
        compare.compare(_side([1.0] * 10), _side([1.0] * 10, nproc=4))


def test_refuses_different_input_fingerprints():
    with pytest.raises(compare.Refused, match="fingerprints"):
        compare.compare(_side([1.0] * 10), _side([1.0] * 10, graph="xyz"))


def test_gain_needs_nine_of_ten_wins_beyond_the_parent_spread():
    parent = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]
    faster = [90, 91, 89, 92, 90, 88, 91, 90, 89, 90]
    rows = compare.compare(_side(parent), _side(faster))
    assert rows["build_serial_plaw"]["p50_ms"]["verdict"] == "GAIN"
    # Eight wins of ten is not a gain, however large.
    mixed = faster[:8] + [150, 150]
    rows = compare.compare(_side(parent), _side(mixed))
    assert rows["build_serial_plaw"]["p50_ms"]["verdict"] != "GAIN"


def test_regression_and_unresolved():
    bound = {m["name"]: m["bound"] for m in compare.load_benchmark()["end_to_end"]}
    parent = [100.0 + (i % 2) for i in range(10)]
    slower = [v * (1 + 2 * bound["p50_ms"]) for v in parent]
    rows = compare.compare(_side(parent), _side(slower))
    assert rows["build_serial_plaw"]["p50_ms"]["verdict"] == "REGRESSION"
    assert rows["build_serial_plaw"]["setup_s"]["verdict"] == "no worse than bound"
    noisy = [50.0, 150.0] * 5
    rows = compare.compare(_side(noisy), _side(noisy))
    assert rows["build_serial_plaw"]["p50_ms"]["verdict"] == "unresolved"


def test_a_faster_change_that_fails_an_operation_is_wrong_not_a_gain():
    parent = [100.0 + (i % 3) for i in range(10)]
    faster = [50.0] * 10
    change = _side(faster)
    change[4] = _run("build_serial_plaw", 4, 50.0, failed=1)
    rows = compare.compare(_side(parent), change)
    for v in rows["build_serial_plaw"].values():
        assert v["verdict"].startswith(compare.WRONG)
    assert rows["build_serial_plaw"]["p50_ms"]["wins"] == 10


def test_build_throughput_gets_no_verdict_of_its_own():
    parent = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]
    faster = [90, 91, 89, 92, 90, 88, 91, 90, 89, 90]
    rows = compare.compare(_side(parent), _side(faster))
    assert rows["build_serial_plaw"]["throughput"]["verdict"] == "derived from p50_ms"
    rows = compare.compare(
        _side(parent, workload="serve_point_zipf"),
        _side(faster, workload="serve_point_zipf"),
    )
    assert rows["serve_point_zipf"]["throughput"]["verdict"] != "derived from p50_ms"


def test_each_round_starts_with_another_workload():
    names = ["a", "b", "c"]
    rounds = [compare.round_order(names, k) for k in range(6)]
    assert [r[0] for r in rounds] == ["a", "b", "c", "a", "b", "c"]
    assert all(sorted(r) == names for r in rounds)
