"""Tests for the index validators."""

import numpy as np
import pytest

from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.core.serial import build_serial
from repro.errors import IndexError_
from repro.graph.order import by_degree
from repro.sim.executor import simulate_intra_node
from repro.validate import (
    check_canonical,
    check_cover,
    check_label_soundness,
    validate_index,
)


class TestSoundness:
    def test_serial_build_is_sound(self, random_graph):
        order = by_degree(random_graph)
        store, _ = build_serial(random_graph, order=order)
        report = check_label_soundness(random_graph, store, order)
        assert report.entries_checked == store.total_entries

    def test_parallel_build_is_sound(self, random_graph):
        index, _ = simulate_intra_node(random_graph, 4, jitter=0.3, seed=1)
        report = check_label_soundness(
            random_graph, index.store, index.order
        )
        assert report.entries_checked == index.store.total_entries

    def test_detects_corrupted_distance(self, random_graph):
        order = by_degree(random_graph)
        store, _ = build_serial(random_graph, order=order)
        # Corrupt one non-self entry.
        for v in range(store.n):
            if store.label_size(v) > 1:
                store.dists_of(v)[-1] += 1.0
                break
        with pytest.raises(IndexError_, match="stores"):
            check_label_soundness(random_graph, store, order)


class TestCover:
    def test_serial_covers(self, random_graph):
        store, _ = build_serial(random_graph)
        report = check_cover(random_graph, store, sources=range(10))
        assert report.pairs_checked == 10 * random_graph.num_vertices

    def test_detects_missing_entry(self, random_graph):
        store, _ = build_serial(random_graph)
        # Drop every entry of one vertex with a non-trivial label.
        victim = max(range(store.n), key=store.label_size)
        indptr, hubs, dists = store.finalized_arrays()
        lo, hi = int(indptr[victim]), int(indptr[victim + 1])
        sizes = np.diff(indptr)
        sizes[victim] = 0
        store = LabelStore.from_arrays(
            np.concatenate(([0], np.cumsum(sizes))),
            np.delete(hubs, np.s_[lo:hi]),
            np.delete(dists, np.s_[lo:hi]),
        )
        with pytest.raises(IndexError_, match="QUERY"):
            check_cover(random_graph, store, sources=[victim])


class TestCanonical:
    def test_serial_build_is_canonical(self, random_graph):
        order = by_degree(random_graph)
        store, _ = build_serial(random_graph, order=order)
        report = check_canonical(random_graph, store, order)
        assert report.redundant_entries == 0

    def test_parallel_build_counts_redundancy(self, medium_graph):
        index, _ = simulate_intra_node(medium_graph, 8, jitter=0.3, seed=3)
        report = check_canonical(
            medium_graph, index.store, index.order, strict=False
        )
        serial_store, _ = build_serial(medium_graph)
        expected_extra = (
            index.store.total_entries - serial_store.total_entries
        )
        assert report.redundant_entries >= 0
        # Redundancy counted must account for at least the extra entries.
        assert report.redundant_entries >= expected_extra

    def test_strict_raises_on_parallel_redundancy(self, medium_graph):
        index, _ = simulate_intra_node(medium_graph, 8, jitter=0.3, seed=3)
        serial_store, _ = build_serial(medium_graph)
        if index.store.total_entries == serial_store.total_entries:
            pytest.skip("this schedule happened to add no redundancy")
        with pytest.raises(IndexError_, match="redundant"):
            check_canonical(medium_graph, index.store, index.order)


class TestValidateIndex:
    def test_full_validation(self, random_graph):
        index = PLLIndex.build(random_graph)
        report = validate_index(index, sources=range(5))
        assert report.pairs_checked == 5 * random_graph.num_vertices
        assert report.entries_checked > 0

    def test_requires_graph(self, random_graph, tmp_path):
        index = PLLIndex.build(random_graph)
        f = tmp_path / "i.npz"
        index.save(f)
        loaded = PLLIndex.load(f)
        with pytest.raises(IndexError_):
            validate_index(loaded)
