"""Index validation against Dijkstra on real builds: the verifier's
``labels_exact``, ``two_hop_exact`` and ``minimality`` checks, and
:meth:`PLLIndex.verify_against_dijkstra`."""

import numpy as np
import pytest

from repro.check.invariants import verify_index
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.core.serial import build_serial
from repro.errors import GraphError, IndexError_
from repro.graph.order import by_degree
from repro.sim.executor import simulate_intra_node


def _serial_index(graph):
    order = by_degree(graph)
    store, _ = build_serial(graph, order=order)
    return PLLIndex(store, order, graph=graph)


def _status(report, name):
    return report.check(name).status


class TestSoundness:
    """``labels_exact``: every stored entry is a true distance."""

    def test_serial_build_is_sound(self, random_graph):
        index = _serial_index(random_graph)
        total = index.store.total_entries
        report = verify_index(index, samples=total)
        assert _status(report, "labels_exact") == "passed"
        assert report.checked_entries == total

    def test_parallel_build_is_sound(self, random_graph):
        index, _ = simulate_intra_node(random_graph, 4, jitter=0.3, seed=1)
        total = index.store.total_entries
        report = verify_index(index, samples=total)
        assert _status(report, "labels_exact") == "passed"
        assert report.checked_entries == total

    def test_detects_corrupted_distance(self, random_graph):
        index = _serial_index(random_graph)
        store = index.store
        # Corrupt one non-self entry.
        v, pos = next(
            (v, i)
            for v in range(store.n)
            for i, h in enumerate(store.finalized_hubs(v))
            if int(h) != int(index.rank[v])
        )
        store.finalized_dists(v)[pos] += 1.0
        report = verify_index(index, samples=store.total_entries)
        assert _status(report, "labels_exact") == "failed"
        assert [x.vertex for x in report.violations
                if x.check == "labels_exact"] == [v]
        assert "Dijkstra says" in report.render()


class TestCover:
    """``two_hop_exact`` and ``verify_against_dijkstra``: queries over
    the labels equal Dijkstra."""

    def test_serial_covers(self, random_graph):
        index = _serial_index(random_graph)
        index.verify_against_dijkstra(range(10))
        report = verify_index(index, samples=80)
        assert _status(report, "two_hop_exact") == "passed"
        assert report.sampled_pairs == 80

    def test_detects_missing_entry(self, random_graph):
        index = _serial_index(random_graph)
        store = index.store
        # Drop every entry of one vertex with a non-trivial label.
        victim = max(range(store.n), key=store.label_size)
        indptr, hubs, dists = store.finalized_arrays()
        lo, hi = int(indptr[victim]), int(indptr[victim + 1])
        sizes = np.diff(indptr)
        sizes[victim] = 0
        index.store = LabelStore.from_arrays(
            np.concatenate(([0], np.cumsum(sizes))),
            np.delete(hubs, np.s_[lo:hi]),
            np.delete(dists, np.s_[lo:hi]),
        )
        with pytest.raises(IndexError_, match="Dijkstra says"):
            index.verify_against_dijkstra([victim])


class TestCanonical:
    """``minimality``: serial builds are canonical; parallel ones carry
    counted redundancy."""

    def test_serial_build_is_canonical(self, random_graph):
        report = verify_index(
            _serial_index(random_graph), samples=0, strict_minimality=True
        )
        assert _status(report, "minimality") == "passed"
        assert report.redundant_labels == 0

    def test_parallel_build_counts_redundancy(self, medium_graph):
        index, _ = simulate_intra_node(medium_graph, 8, jitter=0.3, seed=3)
        report = verify_index(index, samples=0)
        serial_store, _ = build_serial(medium_graph)
        expected_extra = (
            index.store.total_entries - serial_store.total_entries
        )
        assert _status(report, "minimality") == "passed"
        # Redundancy counted must account for at least the extra entries.
        assert report.redundant_labels >= max(expected_extra, 0)

    def test_strict_raises_on_parallel_redundancy(self, medium_graph):
        index, _ = simulate_intra_node(medium_graph, 8, jitter=0.3, seed=3)
        serial_store, _ = build_serial(medium_graph)
        if index.store.total_entries == serial_store.total_entries:
            pytest.skip("this schedule happened to add no redundancy")
        report = verify_index(index, samples=0, strict_minimality=True)
        assert _status(report, "minimality") == "failed"
        assert "dominated" in report.render()


class TestValidateIndex:
    def test_full_validation(self, random_graph):
        index = PLLIndex.build(random_graph)
        report = verify_index(
            index, samples=index.store.total_entries,
            strict_minimality=True,
        )
        assert report.ok, report.render()
        assert {c.status for c in report.checks} == {"passed"}
        assert report.checked_entries == index.store.total_entries

    def test_requires_graph(self, random_graph, tmp_path):
        index = PLLIndex.build(random_graph)
        f = tmp_path / "i.npz"
        index.save(f)
        loaded = PLLIndex.load(f)
        report = verify_index(loaded)
        assert _status(report, "labels_exact") == "skipped"
        assert _status(report, "two_hop_exact") == "skipped"
        assert report.checked_entries == 0
        with pytest.raises(GraphError):
            loaded.verify_against_dijkstra([0])
