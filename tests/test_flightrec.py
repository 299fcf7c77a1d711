"""Tests for repro.obs.flightrec: the last-N event ring and its dumps."""

import io
import json
import os
import signal

import pytest

from repro.errors import CommError, TaskError
from repro.generators.random_graphs import gnm_random_graph
from repro.obs import flightrec
from repro.obs.flightrec import (
    DEFAULT_CAPACITY,
    ENV_DIR,
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    auto_dump,
    dump_events,
    get_recorder,
    install_signal_handler,
)
from repro.parallel.threads import build_parallel_threads


@pytest.fixture(autouse=True)
def clean_recorder():
    get_recorder().clear()
    yield
    get_recorder().clear()


class TestRingBuffer:
    def test_record_and_snapshot(self):
        rec = FlightRecorder(capacity=8)
        rec.record("task_grab", worker=0, root=5)
        rec.record("label_commit", worker=0, root=5, labels=3)
        events = rec.snapshot()
        assert [e["kind"] for e in events] == ["task_grab", "label_commit"]
        assert events[0]["attrs"] == {"worker": 0, "root": 5}
        assert len(rec) == 2

    def test_eviction_keeps_newest(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.record("e", i=i)
        events = rec.snapshot()
        assert len(events) == 3
        assert [e["attrs"]["i"] for e in events] == [7, 8, 9]

    def test_seq_is_monotone_across_eviction(self):
        rec = FlightRecorder(capacity=2)
        for _ in range(5):
            rec.record("e")
        seqs = [e["seq"] for e in rec.snapshot()]
        assert seqs == [4, 5]

    def test_snapshot_last(self):
        rec = FlightRecorder(capacity=8)
        for i in range(5):
            rec.record("e", i=i)
        assert [e["attrs"]["i"] for e in rec.snapshot(last=2)] == [3, 4]
        assert rec.snapshot(last=0) == []
        assert len(rec.snapshot(last=99)) == 5

    def test_clear(self):
        rec = FlightRecorder()
        rec.record("e")
        rec.clear()
        assert rec.snapshot() == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        rec = FlightRecorder()
        with pytest.raises(ValueError):
            rec.set_capacity(-1)

    def test_set_capacity_keeps_newest(self):
        rec = FlightRecorder(capacity=8)
        for i in range(6):
            rec.record("e", i=i)
        rec.set_capacity(2)
        assert rec.capacity == 2
        assert [e["attrs"]["i"] for e in rec.snapshot()] == [4, 5]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_module_level_record_hits_global(self):
        flightrec.record("custom", x=1)
        events = get_recorder().snapshot()
        assert events[-1]["kind"] == "custom"

    def test_events_have_required_fields(self):
        rec = FlightRecorder()
        rec.record("e")
        (event,) = rec.snapshot()
        assert set(event) == {"seq", "ts", "mono", "kind", "thread", "attrs"}


class TestDump:
    def test_dump_to_path(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        rec.record("a", x=1)
        rec.record("b", y=2)
        out = tmp_path / "dump.jsonl"
        count = rec.dump(out, reason="test")
        assert count == 2
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["schema"] == FLIGHTREC_SCHEMA
        assert header["reason"] == "test"
        assert header["events"] == 2
        assert header["capacity"] == 4
        assert header["pid"] == os.getpid()
        assert [json.loads(x)["kind"] for x in lines[1:]] == ["a", "b"]

    def test_dump_to_file_object(self):
        rec = FlightRecorder()
        rec.record("e")
        buf = io.StringIO()
        rec.dump(buf)
        lines = buf.getvalue().splitlines()
        assert json.loads(lines[0])["schema"] == FLIGHTREC_SCHEMA
        assert len(lines) == 2

    def test_dump_events_for_remote_payloads(self, tmp_path):
        """parapll flightrec dump --port writes wire-fetched events."""
        events = [
            {"seq": 1, "ts": 0.0, "mono": 0.0, "kind": "sync_round",
             "thread": "rank-0", "attrs": {"round": 1}},
        ]
        out = tmp_path / "remote.jsonl"
        count = dump_events(events, out, reason="remote-debug")
        assert count == 1
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["reason"] == "remote-debug"
        assert header["pid"] is None and header["capacity"] is None
        assert json.loads(lines[1])["kind"] == "sync_round"


class TestAutoDump:
    def test_skipped_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        flightrec.record("e")
        assert auto_dump("test") is None

    def test_writes_into_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        flightrec.record("e")
        path = auto_dump("unit")
        assert path is not None and os.path.exists(path)
        header = json.loads(open(path).readline())
        assert header["reason"] == "unit"

    def test_explicit_directory_wins(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        flightrec.record("e")
        path = auto_dump("unit", directory=str(tmp_path))
        assert path is not None and path.startswith(str(tmp_path))

    def test_write_error_is_swallowed(self, tmp_path, monkeypatch):
        target = tmp_path / "file-not-dir"
        target.write_text("")
        assert auto_dump("unit", directory=str(target)) is None


class _ExplodingEngine:
    """An engine whose first root search dies mid-build."""

    def __init__(self, order):
        self._order = order

    def run(self, root, store, stats=None):
        raise RuntimeError(f"engine exploded on root {root}")

    def flush_metrics(self):
        pass

    def rank_of(self, root):
        return int(self._order.index(root))


class TestFailureDumps:
    def test_worker_failure_dumps_with_root_and_worker(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: killing a worker mid-build leaves a flightrec
        dump whose last events name the failing root and worker."""
        import repro.core.engines as engines

        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        monkeypatch.setattr(
            engines,
            "make_engine",
            lambda kind, graph, order: _ExplodingEngine(list(order)),
        )
        graph = gnm_random_graph(20, 50, seed=3)
        with pytest.raises(RuntimeError) as excinfo:
            build_parallel_threads(graph, 2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, TaskError)
        assert isinstance(cause.worker, int)
        assert cause.root is not None
        dumps = sorted(tmp_path.glob("flightrec-*-worker_failure-*.jsonl"))
        assert dumps
        lines = dumps[-1].read_text().splitlines()
        events = [json.loads(x) for x in lines[1:]]
        failures = [e for e in events if e["kind"] == "worker_failure"]
        assert failures
        # Both workers hit the exploding engine; the dump names each
        # one, including the worker the raised TaskError blames.
        assert any(
            e["attrs"]["worker"] == cause.worker for e in failures
        )
        assert all(e["attrs"]["root"] is not None for e in failures)

    def test_rank_failure_dumps_and_cause_carries_rank(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster.threadcomm import ThreadComm, run_ranks

        monkeypatch.setenv(ENV_DIR, str(tmp_path))

        def program(rank, comm):
            if rank == 1:
                raise ValueError("rank 1 died")
            return rank

        comm = ThreadComm(2, timeout=5.0)
        with pytest.raises(ValueError) as excinfo:
            run_ranks(comm, program)
        cause = excinfo.value.__cause__
        assert isinstance(cause, CommError)
        assert cause.rank == 1
        dumps = sorted(tmp_path.glob("flightrec-*-rank_failure-*.jsonl"))
        assert dumps
        events = [
            json.loads(x)
            for x in dumps[-1].read_text().splitlines()[1:]
        ]
        failures = [e for e in events if e["kind"] == "rank_failure"]
        assert failures and failures[-1]["attrs"]["rank"] == 1


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR1"), reason="platform lacks SIGUSR1"
)
class TestSignalHandler:
    def test_sigusr1_dumps(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        previous = signal.getsignal(signal.SIGUSR1)
        try:
            assert install_signal_handler()
            flightrec.record("before_signal")
            os.kill(os.getpid(), signal.SIGUSR1)
            dumps = list(tmp_path.glob("flightrec-*-sigusr1-*.jsonl"))
            assert dumps
            events = [
                json.loads(x)
                for x in dumps[0].read_text().splitlines()[1:]
            ]
            assert any(e["kind"] == "before_signal" for e in events)
        finally:
            signal.signal(signal.SIGUSR1, previous)
