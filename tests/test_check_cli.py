"""Tests for the ``parapll check`` CLI surface."""

import json
import textwrap

import pytest

from repro.cli import main


@pytest.fixture
def snippet_dir(tmp_path):
    """A fake package tree with one known violation."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        textwrap.dedent(
            """\
            def check(index, truth, t):
                got = index.distance(0, t)
                return got == truth[t]
            """
        )
    )
    return tmp_path


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.npz"
    code = main(
        ["generate", "--dataset", "Gnutella", "--scale", "0.05",
         "--out", str(path)]
    )
    assert code == 0
    return str(path)


class TestCheckLint:
    def test_violation_sets_exit_code(self, snippet_dir, capsys):
        code = main(["check", "lint", str(snippet_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "PC003" in out

    def test_json_format(self, snippet_dir, capsys):
        main(["check", "lint", str(snippet_dir), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"][0]["rule"] == "PC003"

    def test_github_format(self, snippet_dir, capsys):
        main(["check", "lint", str(snippet_dir), "--format", "github"])
        assert "::error file=" in capsys.readouterr().out

    def test_rule_subset(self, snippet_dir, capsys):
        code = main(
            ["check", "lint", str(snippet_dir), "--rules", "PC001"]
        )
        assert code == 0  # PC003 not in the selected subset

    def test_unknown_rule_errors(self, snippet_dir, capsys):
        code = main(["check", "lint", str(snippet_dir), "--rules", "PC999"])
        assert code == 1
        assert "unknown rule" in capsys.readouterr().err

    def test_cache_flag(self, snippet_dir, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        main(["check", "lint", str(snippet_dir), "--cache", str(cache)])
        assert cache.exists()
        main(["check", "lint", str(snippet_dir), "--cache", str(cache)])
        assert "from cache" in capsys.readouterr().out

    def test_repo_src_is_clean(self, capsys):
        """`parapll check lint` on the real tree exits 0."""
        code = main(["check", "lint"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 violation(s)" in out


class TestCheckRaces:
    def test_stress_is_race_free(self, capsys):
        code = main(
            ["check", "races", "--threads", "2", "--repeats", "1",
             "--vertices", "40", "--edges", "90"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 race(s)" in out

    def test_cluster_stress_is_race_free(self, capsys):
        code = main(
            ["check", "races", "--threads", "2", "--repeats", "1",
             "--vertices", "40", "--edges", "90", "--cluster"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 race(s)" in out
        assert "stressed 3 sanitized build(s)" in out  # 2 policies + cluster

    def test_json_report(self, tmp_path, capsys):
        out_file = tmp_path / "races.json"
        code = main(
            ["check", "races", "--threads", "2", "--repeats", "1",
             "--vertices", "40", "--edges", "90",
             "--json", "--out", str(out_file)]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["schema"] == "parapll-check/1"
        assert doc["tool"] == "races"
        assert doc["ok"] is True
        assert doc["findings"] == []
        assert doc["stats"]["detector"] == "vc"
        assert json.loads(out_file.read_text()) == doc

    def test_corpus_mode(self, capsys):
        code = main(
            ["check", "races", "--corpus", "tests/corpus/races", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, doc
        assert doc["stats"]["corpus_cases"] >= 4

    def test_corpus_failure_reported(self, tmp_path, capsys):
        bad = tmp_path / "missed_defect.py"
        bad.write_text(
            "EXPECT = 1\n\n\ndef run():\n    pass\n"
        )
        code = main(
            ["check", "races", "--corpus", str(tmp_path), "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["ok"] is False
        assert doc["findings"][0]["rule"] == "CORPUS"


class TestCheckDeadlocks:
    def test_src_is_clean(self, capsys):
        code = main(
            ["check", "deadlocks", "--threads", "2", "--repeats", "1",
             "src", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, doc
        assert doc["tool"] == "deadlocks"
        assert doc["findings"] == []
        assert doc["stats"]["acquisitions"] > 0

    def test_static_only_finds_seeded_inversion(self, tmp_path, capsys):
        (tmp_path / "inverted.py").write_text(
            textwrap.dedent(
                """\
                def f(a_lock, b_lock):
                    with a_lock:
                        with b_lock:
                            pass

                def g(a_lock, b_lock):
                    with b_lock:
                        with a_lock:
                            pass
                """
            )
        )
        code = main(
            ["check", "deadlocks", "--no-stress", str(tmp_path), "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["counts"] == {"DL-ORDER": 1}

    def test_corpus_mode(self, capsys):
        code = main(
            ["check", "deadlocks", "--corpus", "tests/corpus/deadlocks"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "clean" in out


class TestCheckDataflow:
    def test_src_is_clean(self, capsys):
        code = main(["check", "dataflow", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, doc
        assert doc["tool"] == "dataflow"
        assert doc["findings"] == []
        assert doc["stats"]["files"] > 90

    def test_seeded_violation_reported(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def worker(store, triples):\n"
            "    store.add_delta(triples)\n"
        )
        code = main(["check", "dataflow", str(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["counts"] == {"PC007": 1}
        assert doc["findings"][0]["kind"] == "lint"

    def test_corpus_mode(self, capsys):
        code = main(
            ["check", "dataflow", "--corpus", "tests/corpus/dataflow"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "clean" in out


class TestCheckIndex:
    def test_build_and_verify(self, graph_file, capsys):
        code = main(
            ["check", "index", "--graph", graph_file, "--threads", "2",
             "--samples", "24"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out

    def test_saved_index(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.index.npz"
        main(["index", "--graph", graph_file, "--out", str(idx)])
        capsys.readouterr()
        code = main(
            ["check", "index", "--index", str(idx), "--graph", graph_file,
             "--samples", "16", "--strict"]
        )
        out = capsys.readouterr().out
        assert code == 0, out

    def test_requires_some_input(self, capsys):
        code = main(["check", "index"])
        assert code == 1
        assert "needs" in capsys.readouterr().err
