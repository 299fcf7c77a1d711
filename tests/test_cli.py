"""End-to-end tests for the ``parapll`` command-line tool."""

import json

import pytest

from repro.cli import main
from repro.core.index import PLLIndex
from repro.io.npz import load_graph_npz, save_graph_npz
from repro.generators.random_graphs import gnm_random_graph


@pytest.fixture
def graph_file(tmp_path):
    g = gnm_random_graph(30, 70, seed=2)
    path = tmp_path / "g.npz"
    save_graph_npz(g, path)
    return str(path)


class TestGenerate:
    def test_generates_npz(self, tmp_path, capsys):
        out = tmp_path / "w.npz"
        code = main(
            [
                "generate",
                "--dataset",
                "Wiki-Vote",
                "--scale",
                "0.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        g = load_graph_npz(out)
        assert g.name == "Wiki-Vote"
        assert "wrote" in capsys.readouterr().out


class TestIndex:
    def test_serial_index(self, graph_file, tmp_path, capsys):
        out = tmp_path / "i.npz"
        code = main(["index", "--graph", graph_file, "--out", str(out)])
        assert code == 0
        idx = PLLIndex.load(out)
        assert idx.num_vertices == load_graph_npz(graph_file).num_vertices
        assert "indexed" in capsys.readouterr().out

    def test_threaded_index(self, graph_file, tmp_path):
        out = tmp_path / "i.npz"
        code = main(
            [
                "index",
                "--graph",
                graph_file,
                "--threads",
                "3",
                "--policy",
                "static",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        idx = PLLIndex.load(out, graph=load_graph_npz(graph_file))
        idx.verify_against_dijkstra([0, 5])

    def test_default_output_name(self, graph_file, tmp_path):
        code = main(["index", "--graph", graph_file])
        assert code == 0
        assert (tmp_path / "g.index.npz").exists()

    def test_bfs_engine(self, graph_file, tmp_path):
        from repro.baselines.bfs import bfs_distances

        out = tmp_path / "b.npz"
        code = main(
            ["index", "--graph", graph_file, "--engine", "bfs",
             "--out", str(out)]
        )
        assert code == 0
        g = load_graph_npz(graph_file)
        idx = PLLIndex.load(out)
        truth = bfs_distances(g, 0)
        for t in range(g.num_vertices):
            assert idx.distance(0, t) == truth[t]

    def test_bfs_engine_threaded(self, graph_file, tmp_path):
        from repro.baselines.bfs import bfs_distances

        out = tmp_path / "bt.npz"
        code = main(
            ["index", "--graph", graph_file, "--engine", "bfs",
             "--threads", "3", "--out", str(out)]
        )
        assert code == 0
        g = load_graph_npz(graph_file)
        idx = PLLIndex.load(out)
        truth = bfs_distances(g, 2)
        for t in range(g.num_vertices):
            assert idx.distance(2, t) == truth[t]


class TestQuery:
    def test_query_roundtrip(self, graph_file, tmp_path, capsys):
        idx_file = tmp_path / "i.npz"
        main(["index", "--graph", graph_file, "--out", str(idx_file)])
        capsys.readouterr()
        code = main(["query", "--index", str(idx_file), "0", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "distance(0, 7)" in out

    def test_query_self(self, graph_file, tmp_path, capsys):
        idx_file = tmp_path / "i.npz"
        main(["index", "--graph", graph_file, "--out", str(idx_file)])
        capsys.readouterr()
        main(["query", "--index", str(idx_file), "4", "4"])
        assert "= 0.0" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, graph_file, tmp_path, capsys):
        idx_file = tmp_path / "i.npz"
        main(["index", "--graph", graph_file, "--out", str(idx_file)])
        capsys.readouterr()
        code = main(["stats", "--index", str(idx_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "vertices:" in out
        assert "label size mean" in out


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["index", "--graph", "/nonexistent/g.npz"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_query_vertex(self, graph_file, tmp_path, capsys):
        idx_file = tmp_path / "i.npz"
        main(["index", "--graph", graph_file, "--out", str(idx_file)])
        code = main(["query", "--index", str(idx_file), "0", "999"])
        assert code == 1


class TestBenchPassthrough:
    def test_bench_subcommand(self, capsys):
        code = main(
            [
                "bench",
                "--experiment",
                "datasets",
                "--scale",
                "0.15",
                "--datasets",
                "Gnutella",
            ]
        )
        assert code == 0
        assert "Gnutella" in capsys.readouterr().out


class TestObs:
    def test_summary_and_exports(self, graph_file, tmp_path, capsys):
        import json

        prom = tmp_path / "m.prom"
        jsonl = tmp_path / "t.jsonl"
        code = main(
            [
                "obs",
                "--graph",
                graph_file,
                "--threads",
                "2",
                "--prom",
                str(prom),
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        n = load_graph_npz(graph_file).num_vertices
        out = capsys.readouterr().out
        assert "observability summary" in out
        assert f"roots searched     {n}" in out
        assert "workers:" in out
        assert f"parapll_build_roots_total {n}" in prom.read_text()
        with open(jsonl) as fh:
            header, *records = [json.loads(line) for line in fh]
        assert header["schema"] == "parapll-flightrec/1"
        assert any(r["kind"] == "root_search" for r in records)
        # --jsonl implies tracing for the build only; it is off again.
        from repro.obs import config as obs_config

        assert obs_config.TRACING is False

    def test_dataset_source_serial(self, capsys):
        code = main(
            ["obs", "--dataset", "Gnutella", "--scale", "0.1", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built Gnutella" in out
        assert "prune rate" in out


class TestPerf:
    def _run(self, tmp_path, tag="a", repeats="1"):
        out = tmp_path / f"BENCH_{tag}.json"
        code = main(
            [
                "perf", "run",
                "--tag", tag,
                "--repeats", repeats,
                "--scale", "0.25",
                "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_run_writes_schema_versioned_bench(self, tmp_path, capsys):
        import json

        out = self._run(tmp_path)
        doc = json.loads(out.read_text())
        assert doc["schema"] == "parapll-bench/2"
        assert "environment" in doc and "workloads" in doc
        stdout = capsys.readouterr().out
        assert "serial_build" in stdout

    def test_compare_self_passes(self, tmp_path, capsys):
        out = self._run(tmp_path)
        code = main(["perf", "compare", str(out), str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_regression_nonzero_exit(self, tmp_path, capsys):
        import json

        out = self._run(tmp_path)
        doc = json.loads(out.read_text())
        doc["workloads"]["serial_build"]["metrics"]["labels"]["median"] *= 2
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["perf", "compare", str(out), str(bad)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_update_baseline_and_report(self, tmp_path, capsys):
        baseline = tmp_path / "bench" / "baseline.json"
        code = main(
            [
                "perf", "update-baseline",
                "--repeats", "1",
                "--scale", "0.25",
                "--baseline", str(baseline),
            ]
        )
        assert code == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["perf", "report", str(baseline)]) == 0
        assert "benchmark baseline" in capsys.readouterr().out

    def test_compare_missing_file_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = main(["perf", "compare", missing, missing])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTimeline:
    def test_sim_timeline_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        code = main(
            [
                "timeline",
                "--dataset", "Gnutella",
                "--scale", "0.25",
                "--sim",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in event
        stdout = capsys.readouterr().out
        assert "critical path" in stdout
        assert "worker 0" in stdout

    def test_threaded_timeline(self, graph_file, capsys):
        code = main(["timeline", "--graph", graph_file, "--threads", "2"])
        assert code == 0
        assert "critical path" in capsys.readouterr().out

    def test_from_jsonl_round_trip(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        code = main(
            [
                "obs",
                "--dataset", "Gnutella",
                "--scale", "0.25",
                "--threads", "2",
                "--jsonl", str(jsonl),
            ]
        )
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "converted.json"
        code = main(
            ["timeline", "--from-jsonl", str(jsonl), "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "critical path" in capsys.readouterr().out

    def test_tracing_restored_after_timeline(self):
        from repro.obs import config as obs_config

        main(["timeline", "--dataset", "Gnutella", "--scale", "0.1", "--sim"])
        assert obs_config.TRACING is False


class TestCaptureFileErrors:
    """A bad capture file ends in a named error, never a traceback."""

    def _fails(self, argv, capsys, *needles):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for needle in needles:
            assert needle in err
        return err

    def test_workload_report_foreign_schema(self, tmp_path, capsys):
        cap = tmp_path / "cap.qlog"
        cap.write_text('{"kind": "header", "schema": "other/1"}\n')
        self._fails(
            ["workload", "report", "--qlog", str(cap)],
            capsys, f"{cap}:1", "parapll-qlog/1",
        )

    def test_workload_report_non_object_line(self, tmp_path, capsys):
        cap = tmp_path / "cap.qlog"
        cap.write_text('{"op": "distance", "s": 0, "t": 1}\n[1, 2]\n')
        self._fails(
            ["workload", "report", "--qlog", str(cap)],
            capsys, f"{cap}:2", "not a JSON object",
        )

    def test_workload_report_record_without_pair(self, tmp_path, capsys):
        cap = tmp_path / "cap.qlog"
        cap.write_text('{"op": "distance"}\n')
        self._fails(
            ["workload", "report", "--qlog", str(cap)],
            capsys, f"{cap}: record 1", "integer s and t",
        )

    def test_timeline_event_without_attrs(self, tmp_path, capsys):
        dump = tmp_path / "t.jsonl"
        dump.write_text(
            '{"kind": "header", "schema": "parapll-flightrec/1"}\n'
            '{"seq": 1}\n'
        )
        self._fails(
            ["timeline", "--from-jsonl", str(dump)],
            capsys, f"{dump}: event 1", "no kind or attrs",
        )

    def test_timeline_non_json_line(self, tmp_path, capsys):
        dump = tmp_path / "t.jsonl"
        dump.write_text(
            '{"kind": "header", "schema": "parapll-flightrec/1"}\n{"seq": 1\n'
        )
        self._fails(
            ["timeline", "--from-jsonl", str(dump)],
            capsys, f"{dump}:2", "not JSON",
        )

    def test_timeline_non_object_line(self, tmp_path, capsys):
        dump = tmp_path / "t.jsonl"
        dump.write_text(
            '{"kind": "header", "schema": "parapll-flightrec/1"}\n"x"\n'
        )
        self._fails(
            ["timeline", "--from-jsonl", str(dump)],
            capsys, f"{dump}:2", "not a JSON object",
        )

    def test_timeline_rejects_headerless_trace(self, tmp_path, capsys):
        # The header-less trace JSONL older versions wrote.
        dump = tmp_path / "old.trace.jsonl"
        dump.write_text(json.dumps({
            "name": "root_search", "kind": "span", "ts": 1.0, "dur": 0.5,
            "span_id": 1, "parent_id": None, "thread": "t", "attrs": {},
        }) + "\n")
        self._fails(
            ["timeline", "--from-jsonl", str(dump)],
            capsys, str(dump), "no parapll-flightrec/1 header",
        )

    def test_timeline_loads_failure_auto_dump(self, tmp_path, capsys):
        from repro.obs.flightrec import FlightRecorder

        rec = FlightRecorder()
        rec.record("task_grab", worker=0, root=3)
        rec.record("worker_failure", worker=0, root=3, error="boom")
        dump = tmp_path / "flightrec-1-worker_failure-1.jsonl"
        rec.dump(str(dump), reason="worker_failure")
        out = tmp_path / "t.json"
        # No timed tasks in a bare failure dump: the named "no timed
        # tasks" error, after the Chrome trace was written.
        assert main(
            ["timeline", "--from-jsonl", str(dump), "--out", str(out)]
        ) == 1
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"task_grab", "worker_failure"} <= names
        assert "no timed tasks" in capsys.readouterr().err


@pytest.fixture
def index_file(graph_file, tmp_path):
    idx = PLLIndex.build(load_graph_npz(graph_file))
    path = tmp_path / "i.npz"
    idx.save(path)
    return str(path)


class TestExplain:
    def test_text_output(self, index_file, capsys):
        code = main(["explain", "--index", index_file, "3", "17"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN distance(3, 17)" in out
        assert "labels:" in out

    def test_json_output_matches_query(self, graph_file, index_file, capsys):
        import json
        import math

        code = main(["explain", "--index", index_file, "--json", "3", "17"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "parapll-explain/1"
        index = PLLIndex.load(index_file)
        expected = index.distance(3, 17)
        got = math.inf if doc["distance"] == "inf" else doc["distance"]
        assert got == expected

    def test_trivial_pair(self, index_file, capsys):
        code = main(["explain", "--index", index_file, "4", "4"])
        assert code == 0
        assert "trivial" in capsys.readouterr().out


class TestServe:
    def test_serve_for_duration(self, index_file, capsys):
        code = main(
            [
                "serve",
                "--index", index_file,
                "--port", "0",
                "--duration", "0.0",
            ]
        )
        assert code == 0
        assert "serving" in capsys.readouterr().out

    def test_serve_needs_a_source(self, capsys):
        code = main(["serve", "--port", "0"])
        assert code != 0
        assert "needs --index" in capsys.readouterr().err


class TestFlightrecDump:
    def test_local_dump_after_build(self, graph_file, tmp_path, capsys):
        import json

        out = tmp_path / "flight.jsonl"
        code = main(
            [
                "flightrec", "dump",
                "--graph", graph_file,
                "--threads", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "dumped" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "parapll-flightrec/1"
        assert header["events"] == len(lines) - 1
        kinds = {json.loads(x)["kind"] for x in lines[1:]}
        assert "task_grab" in kinds and "label_commit" in kinds

    def test_remote_dump_from_live_server(self, index_file, tmp_path, capsys):
        import json

        from repro.obs import flightrec
        from repro.service.oracle import DistanceOracle
        from repro.service.server import DistanceServer

        flightrec.get_recorder().clear()
        flightrec.record("cli_marker", n=1)
        oracle = DistanceOracle(PLLIndex.load(index_file))
        out = tmp_path / "remote.jsonl"
        with DistanceServer(oracle) as server:
            code = main(
                [
                    "flightrec", "dump",
                    "--port", str(server.port),
                    "--out", str(out),
                ]
            )
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["reason"] == "remote-debug"
        kinds = [json.loads(x)["kind"] for x in lines[1:]]
        assert "cli_marker" in kinds
        flightrec.get_recorder().clear()


class TestTop:
    def test_single_frame(self, index_file, capsys):
        from repro.service.oracle import DistanceOracle
        from repro.service.server import DistanceServer

        oracle = DistanceOracle(PLLIndex.load(index_file))
        with DistanceServer(oracle) as server:
            code = main(
                [
                    "top",
                    "--port", str(server.port),
                    "--iterations", "1",
                    "--no-clear",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "parapll top" in out
        assert "uptime" in out
        assert "in-flight" in out
        # --no-clear must not emit terminal escape codes.
        assert "\x1b[2J" not in out
