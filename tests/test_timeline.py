"""Tests for Chrome-trace export and critical-path analysis."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import flightrec
from repro.obs.timeline import (
    PID_SIM,
    PID_WALL,
    TimelineTask,
    analyze_critical_path,
    chrome_trace,
    extract_tasks,
    render_critical_path,
    write_chrome_trace,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.configure(metrics=True, tracing=False)
    yield
    obs.reset()
    obs.configure(metrics=True, tracing=False)


def _event(name, mono, seq, thread="t", **attrs):
    """A flight event as the ring holds it (an instant)."""
    return {
        "seq": seq,
        "ts": 0.0,
        "mono": mono,
        "kind": name,
        "thread": thread,
        "attrs": attrs,
        "parent_id": None,
    }


def _span(name, ts, dur, span_id, parent_id=None, thread="w", **attrs):
    """A span event: appended at its end, ``mono`` = start + dur."""
    ev = _event(name, ts + dur, span_id, thread=thread, **attrs)
    ev.update(span_id=span_id, parent_id=parent_id, dur=dur)
    return ev


def _sim_event(name, start, finish, worker, span_id, **attrs):
    return _event(
        name, 0.0, span_id, thread="sim", ts=finish, start=start,
        finish=finish, worker=worker, clock="sim", **attrs,
    )


class TestExtractTasks:
    def test_span_becomes_task(self):
        tasks = extract_tasks([_span("root_search", 1.0, 0.5, span_id=1)])
        assert len(tasks) == 1
        t = tasks[0]
        assert (t.start, t.end) == (1.0, 1.5)
        assert t.duration == pytest.approx(0.5)
        assert not t.sim

    def test_sim_event_becomes_task_on_worker_lane(self):
        tasks = extract_tasks(
            [_sim_event("root_search", 2.0, 5.0, worker=3, span_id=1)]
        )
        assert len(tasks) == 1
        assert tasks[0].lane == "worker 3"
        assert tasks[0].sim
        assert (tasks[0].start, tasks[0].end) == (2.0, 5.0)

    def test_instant_event_skipped(self):
        assert extract_tasks([_event("mark", 1.0, seq=1)]) == []

    def test_lock_wait_carried(self):
        tasks = extract_tasks(
            [_span("root_search", 0.0, 1.0, span_id=1, lock_wait=0.25)]
        )
        assert tasks[0].lock_wait == pytest.approx(0.25)


class TestChromeTrace:
    def _records(self):
        return [
            _span("root_search", 10.0, 0.5, span_id=1, worker=0),
            _span("root_search", 10.6, 0.4, span_id=2, worker=1),
            _sim_event("root_search", 0.0, 3.0, worker=0, span_id=3),
        ]

    def test_required_keys_on_every_event(self):
        doc = chrome_trace(self._records())
        assert "traceEvents" in doc
        for event in doc["traceEvents"]:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in event, f"{key} missing from {event}"

    def test_complete_events_microseconds(self):
        doc = chrome_trace(self._records())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        wall = [e for e in xs if e["pid"] == PID_WALL]
        # Rebased to the wall origin (10.0 s): 0 and 0.6 s in µs.
        assert [e["ts"] for e in wall] == [0.0, 600000.0]
        assert [e["dur"] for e in wall] == [500000.0, 400000.0]

    def test_clock_domains_separate_pids(self):
        doc = chrome_trace(self._records())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {PID_WALL, PID_SIM}
        sim = [e for e in xs if e["pid"] == PID_SIM]
        assert sim[0]["ts"] == 0.0  # rebased to its own origin
        assert sim[0]["dur"] == pytest.approx(3.0e6)

    def test_events_sorted_within_process(self):
        doc = chrome_trace(self._records())
        xs = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert xs == sorted(xs, key=lambda e: (e["pid"], e["ts"], e["tid"]))

    def test_metadata_names_processes_and_lanes(self):
        doc = chrome_trace(self._records())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        lanes = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert lanes == {"worker 0", "worker 1"}

    def test_one_track_per_sim_worker(self):
        obs.configure(tracing=True)
        from repro.generators.random_graphs import gnm_random_graph
        from repro.sim.executor import simulate_intra_node

        graph = gnm_random_graph(60, 150, seed=3)
        simulate_intra_node(graph, 4, policy="dynamic", seed=5)
        doc = chrome_trace()
        sim_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["pid"] == PID_SIM and e["ph"] == "X"
        }
        assert len(sim_tids) == 4

    def test_instant_event_phase(self):
        doc = chrome_trace([_event("sync", 1.0, seq=9)])
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "t"

    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), self._records())
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        assert loaded["otherData"]["schema"] == "chrome-trace/1"

    def test_args_carry_span_linkage(self):
        doc = chrome_trace(
            [_span("a", 0.0, 1.0, span_id=7, parent_id=3, worker=0)]
        )
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["args"]["span_id"] == 7
        assert xs[0]["args"]["parent_id"] == 3


class TestCriticalPath:
    def _hand_built(self):
        # worker 0: [0, 4] then [4, 6];  worker 1: [0, 3] then [4.5, 10]
        # The last task (end 10) starts at 4.5, after w0's [0, 4] ended:
        # chain is [0,4] -> [4.5,10] unless a same-lane tie wins.
        return [
            _span("root_search", 0.0, 4.0, span_id=1, worker=0),
            _span("root_search", 4.0, 2.0, span_id=2, worker=0,
                  lock_wait=0.5),
            _span("root_search", 0.0, 3.0, span_id=3, worker=1),
            _span("root_search", 4.5, 5.5, span_id=4, worker=1),
        ]

    def test_fractions_sum_to_one(self):
        report = analyze_critical_path(self._hand_built())
        assert report.makespan == pytest.approx(10.0)
        for lane in report.lanes:
            assert lane.busy + lane.lock_wait + lane.idle == pytest.approx(
                1.0
            )

    def test_lane_accounting(self):
        report = analyze_critical_path(self._hand_built())
        by_lane = {lane.lane: lane for lane in report.lanes}
        w0 = by_lane["worker 0"]
        assert w0.busy_seconds == pytest.approx(5.5)  # 6.0 - 0.5 lock
        assert w0.lock_wait_seconds == pytest.approx(0.5)
        assert w0.idle_seconds == pytest.approx(4.0)
        w1 = by_lane["worker 1"]
        assert w1.busy_seconds == pytest.approx(8.5)
        assert w1.idle_seconds == pytest.approx(1.5)

    def test_chain_walks_cross_lane_dependency(self):
        report = analyze_critical_path(self._hand_built())
        assert [t.span_id for t in report.chain] == [1, 4]
        assert report.chain_seconds == pytest.approx(9.5)
        assert report.chain_coverage == pytest.approx(0.95)

    def test_same_lane_predecessor_preferred_on_tie(self):
        tasks = [
            _span("a", 0.0, 2.0, span_id=1, worker=0),
            _span("b", 0.0, 2.0, span_id=2, worker=1),
            _span("c", 2.0, 1.0, span_id=3, worker=1),
        ]
        report = analyze_critical_path(tasks)
        # Both span 1 and 2 end exactly when span 3 starts; the
        # same-lane predecessor (span 2) explains the schedule better.
        assert [t.span_id for t in report.chain] == [2, 3]

    def test_top_k_slowest(self):
        report = analyze_critical_path(self._hand_built(), top_k=2)
        durations = [t.duration for t in report.slowest]
        assert durations == sorted(durations, reverse=True)
        assert len(report.slowest) == 2
        assert report.slowest[0].duration == pytest.approx(5.5)

    def test_container_span_dropped(self):
        tasks = self._hand_built() + [
            _span("build_parallel_threads", 0.0, 10.5, span_id=99,
                  thread="MainThread"),
        ]
        report = analyze_critical_path(tasks)
        assert all(lane.lane != "MainThread" for lane in report.lanes)
        assert report.makespan == pytest.approx(10.0)

    def test_sim_domain_preferred_when_mixed(self):
        mixed = self._hand_built() + [
            _sim_event("root_search", 0.0, 100.0, worker=0, span_id=50),
        ]
        report = analyze_critical_path(mixed)
        assert report.sim
        assert report.makespan == pytest.approx(100.0)

    def test_task_names_filter(self):
        tasks = self._hand_built() + [
            _span("commit", 9.0, 0.5, span_id=60, worker=0),
        ]
        report = analyze_critical_path(tasks, task_names=("root_search",))
        assert all(t.name == "root_search" for t in report.chain)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            analyze_critical_path([])

    def test_render_mentions_lanes_and_chain(self):
        text = render_critical_path(
            analyze_critical_path(self._hand_built())
        )
        assert "critical path" in text
        assert "worker 0" in text and "worker 1" in text
        assert "makespan" in text

    def test_real_threaded_build_end_to_end(self):
        obs.configure(tracing=True)
        from repro.generators.random_graphs import gnm_random_graph
        from repro.parallel.threads import build_parallel_threads

        graph = gnm_random_graph(60, 150, seed=3)
        build_parallel_threads(graph, 2)
        report = analyze_critical_path()
        assert not report.sim
        # Dynamic assignment on a small graph can starve a worker, so
        # only the workers that got roots have lanes.
        assert 1 <= len(report.lanes) <= 2
        assert all(lane.lane.startswith("worker") for lane in report.lanes)
        for lane in report.lanes:
            assert lane.busy + lane.lock_wait + lane.idle == pytest.approx(
                1.0
            )
        assert 0 < report.chain_coverage <= 1.0 + 1e-9


def _comm_event(name, ts, flow, flow_id, thread, seq, **attrs):
    return _event(
        name, ts, seq, thread=thread, flow=flow, flow_id=flow_id, **attrs
    )


class TestFlowEvents:
    def _paired_records(self):
        return [
            _comm_event(
                "comm_send", 1.0, "out", "f1-1", "rank-0", 10,
                src=0, dest=1,
            ),
            _comm_event(
                "comm_recv", 1.5, "in", "f1-1", "rank-1", 11,
                src=0, dest=1,
            ),
        ]

    def test_matched_pair_becomes_flow_arrow(self):
        doc = chrome_trace(self._paired_records())
        starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
        finishes = [e for e in doc["traceEvents"] if e.get("ph") == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        s, f = starts[0], finishes[0]
        assert s["id"] == f["id"] == "f1-1>11"
        assert s["cat"] == f["cat"] == "comm"
        assert f["bp"] == "e"
        assert f["ts"] >= s["ts"]
        assert s["args"]["flow_id"] == "f1-1"

    def test_flow_start_anchored_at_sender_lane(self):
        doc = chrome_trace(self._paired_records())
        sends = [
            e
            for e in doc["traceEvents"]
            if e["name"] == "comm_send" and e["ph"] == "i"
        ]
        starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
        assert starts[0]["pid"] == sends[0]["pid"]
        assert starts[0]["tid"] == sends[0]["tid"]

    def test_orphan_recv_emits_no_arrow(self):
        records = [
            _comm_event(
                "comm_recv", 2.0, "in", "f9-9", "rank-1", 7,
                src=0, dest=1,
            )
        ]
        doc = chrome_trace(records)
        assert not [
            e for e in doc["traceEvents"] if e.get("ph") in ("s", "f")
        ]

    def test_broadcast_fanout_gets_unique_edge_ids(self):
        records = [
            _comm_event(
                "comm_send", 1.0, "out", "f2-1", "rank-0", 20,
                src=0, dest=None,
            ),
            _comm_event(
                "comm_recv", 1.2, "in", "f2-1", "rank-1", 21,
                src=0, dest=1,
            ),
            _comm_event(
                "comm_recv", 1.3, "in", "f2-1", "rank-2", 22,
                src=0, dest=2,
            ),
        ]
        doc = chrome_trace(records)
        starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
        assert {e["id"] for e in starts} == {"f2-1>21", "f2-1>22"}


class TestFlightDump:
    """A traced threads build's dump, read back by the timeline, on a
    graph whose three per-root events overflow a 4,096-event ring."""

    ARGS = ["--dataset", "Gnutella", "--scale", "2.5", "--seed", "42"]

    @pytest.fixture(scope="class")
    def build(self, tmp_path_factory):
        from repro.cli import main
        from repro.generators.paper import load_dataset

        path = tmp_path_factory.mktemp("dump") / "build.trace.jsonl"
        code = main(["obs", *self.ARGS, "--threads", "2",
                     "--jsonl", str(path)])
        assert code == 0
        n = load_dataset("Gnutella", scale=2.5, seed=42).num_vertices
        header, events = flightrec.read_dump(
            str(path), flightrec.FLIGHTREC_SCHEMA
        )
        return n, header, events

    def test_dump_holds_every_roots_events(self, build):
        n, header, events = build
        assert flightrec.EVENTS_PER_ROOT * n > flightrec.RING_CAPACITY
        assert header["events"] == len(events)
        for kind in ("task_grab", "root_search", "label_commit"):
            roots = sorted(
                e["attrs"]["root"] for e in events if e["kind"] == kind
            )
            assert roots == list(range(n)), kind
        spans = [e for e in events if e["kind"] == "root_search"]
        assert all(e["dur"] >= 0 and e["span_id"] for e in spans)

    def test_extract_tasks_one_root_search_per_root(self, build):
        n, _header, events = build
        tasks = [t for t in extract_tasks(events) if t.name == "root_search"]
        assert len(tasks) == n
        assert {t.attrs["root"] for t in tasks} == set(range(n))
        assert {t.lane for t in tasks} <= {"worker 0", "worker 1"}
