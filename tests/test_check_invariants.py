"""Tests for the label-invariant verifier (repro.check.invariants)."""

import numpy as np
import pytest

from repro.check.invariants import verify_index
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.errors import CheckError
from repro.graph.builder import GraphBuilder
from repro.parallel.threads import build_parallel_threads


def checks_by_name(report):
    return {c.name: c.status for c in report.checks}


class TestCleanIndexes:
    def test_serial_build_passes_strict(self, random_graph):
        index = PLLIndex.build(random_graph)
        report = verify_index(
            index, samples=24, seed=3, strict_minimality=True
        )
        assert report.ok, report.render()
        assert report.redundant_labels == 0
        assert report.sampled_pairs >= 24

    def test_near_zero_weight_serial_build_passes_strict(self):
        # Via hub 0, vertex 2 reaches vertex 1 in 1.0 + 1e-9: the build
        # keeps the direct label (hub 1, 1.0), which is not dominated.
        builder = GraphBuilder(num_vertices=3)
        builder.add_edge(0, 1, 1.0)
        builder.add_edge(0, 2, 1e-9)
        builder.add_edge(1, 2, 1.0)
        index = PLLIndex.build(builder.build())
        report = verify_index(index, samples=8, strict_minimality=True)
        assert report.ok, report.render()
        assert report.redundant_labels == 0

    def test_parallel_build_passes(self, random_graph):
        index = build_parallel_threads(random_graph, 4, policy="dynamic")
        report = verify_index(index, samples=24, seed=3)
        assert report.ok, report.render()

    def test_path_graph(self, path_graph):
        report = verify_index(PLLIndex.build(path_graph), samples=8)
        assert report.ok
        assert checks_by_name(report)["two_hop_exact"] == "passed"

    def test_no_graph_skips_exactness(self, random_graph):
        index = PLLIndex.build(random_graph)
        index.graph = None
        report = verify_index(index, samples=16)
        assert checks_by_name(report)["two_hop_exact"] == "skipped"
        assert report.ok  # skipped checks don't fail

    def test_minimality_can_be_disabled(self, random_graph):
        index = PLLIndex.build(random_graph)
        report = verify_index(index, samples=0, check_minimality=False)
        by_name = checks_by_name(report)
        assert by_name["minimality"] == "skipped"
        assert by_name["two_hop_exact"] == "skipped"

    def test_report_lookup_unknown_check(self, path_graph):
        report = verify_index(PLLIndex.build(path_graph), samples=0)
        with pytest.raises(CheckError):
            report.check("nonsense")


def _with_entry_dropped(store, pos):
    """A new store with the flat-array entry at *pos* removed."""
    indptr, hubs, dists = store.finalized_arrays()
    v = int(np.searchsorted(indptr, pos, side="right") - 1)
    new_indptr = indptr.copy()
    new_indptr[v + 1:] -= 1
    return LabelStore.from_arrays(
        new_indptr, np.delete(hubs, pos), np.delete(dists, pos)
    )


def _with_entry_inserted(store, v, hub, dist):
    """A new store with (hub, dist) inserted into L(v), sorted."""
    indptr, hubs, dists = store.finalized_arrays()
    run = hubs[int(indptr[v]):int(indptr[v + 1])]
    pos = int(indptr[v]) + int(np.searchsorted(run, hub))
    new_indptr = indptr.copy()
    new_indptr[v + 1:] += 1
    return LabelStore.from_arrays(
        new_indptr, np.insert(hubs, pos, hub), np.insert(dists, pos, dist)
    )


class TestCorruptedIndexes:
    """Tamper with finalized labels; the verifier must catch each case.

    Structural tampering goes through the writable zero-copy slices
    (`finalized_hubs/dists(v)`) or rebuilds the flat CSR arrays; the
    verifier reads through the same public accessors.
    """

    @pytest.fixture
    def index(self, random_graph):
        idx = PLLIndex.build(random_graph)
        idx.store.finalize()  # idempotent: later tampering sticks
        return idx

    def test_unsorted_hubs_detected(self, index):
        store = index.store
        v = next(
            u for u in range(index.num_vertices)
            if len(store.finalized_hubs(u)) >= 2
        )
        run = store.finalized_hubs(v)
        run[:] = run[::-1].copy()
        report = verify_index(index, samples=0, check_minimality=False)
        assert checks_by_name(report)["hubs_sorted"] == "failed"
        assert any(f.vertex == v for f in report.violations)

    def test_negative_distance_detected(self, index):
        index.store.finalized_dists(1)[0] = -0.5
        report = verify_index(index, samples=0, check_minimality=False)
        assert checks_by_name(report)["distances_valid"] == "failed"

    def test_nan_distance_detected(self, index):
        index.store.finalized_dists(1)[0] = float("nan")
        report = verify_index(index, samples=0, check_minimality=False)
        assert checks_by_name(report)["distances_valid"] == "failed"

    def test_missing_self_label_detected(self, index):
        v = 2
        r = int(index.rank[v])
        indptr, _, _ = index.store.finalized_arrays()
        run = index.store.finalized_hubs(v)
        pos = int(indptr[v]) + int(np.flatnonzero(run == r)[0])
        index.store = _with_entry_dropped(index.store, pos)
        report = verify_index(index, samples=0, check_minimality=False)
        assert checks_by_name(report)["self_label"] == "failed"

    def test_wrong_distances_fail_exactness(self, index, random_graph):
        # Scale every label distance by 1.5 (self labels stay 0): all
        # structural checks still pass, but every reachable pair now
        # answers 1.5x too long — only the Dijkstra comparison sees it.
        _, _, dists = index.store.finalized_arrays()
        dists *= 1.5
        report = verify_index(
            index, graph=random_graph, samples=64, seed=0,
            check_minimality=False,
        )
        assert checks_by_name(report)["two_hop_exact"] == "failed"
        assert not report.ok

    def test_redundant_label_counted_and_strict_fails(self, index):
        # Inject a label (rank[u], d) into L(v) that a common earlier
        # hub already covers: legal for parallel builds (counted),
        # fatal under strict minimality (serial builds are canonical).
        store = index.store
        candidates = [
            w for w in range(index.num_vertices)
            if len(store.finalized_hubs(w))
            and store.finalized_hubs(w)[0] == 0
        ]
        v, u = candidates[0], candidates[1]
        h = int(index.rank[u])
        assert h > 0
        assert h not in store.finalized_hubs(v)  # not already labelled
        # Distance long enough that the shared hub 0 dominates it.
        d_dom = float(
            store.finalized_dists(v)[0] + store.finalized_dists(u)[0]
        ) + 5.0
        index.store = _with_entry_inserted(store, v, h, d_dom)

        loose = verify_index(index, samples=0, check_minimality=True)
        strict = verify_index(index, samples=0, strict_minimality=True)
        assert loose.redundant_labels >= 1
        assert checks_by_name(loose)["minimality"] == "passed"
        assert checks_by_name(strict)["minimality"] == "failed"

    def test_render_lists_violations(self, index):
        index.store.finalized_dists(1)[0] = -1.0
        report = verify_index(index, samples=0, check_minimality=False)
        text = report.render()
        assert "FAIL" in text
        assert "distances_valid" in text
