"""Tests for the QUERY(s, t, L) implementations."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.core import native
from repro.core.labels import LabelStore
from repro.core.query import (
    clear_tmp,
    load_tmp,
    merge_join,
    query_candidates,
    query_distance,
    query_distance_batch,
    query_numpy,
    query_result,
    query_via_tmp,
)
from repro.errors import GraphError

INF = math.inf


@pytest.fixture
def store():
    """A tiny 2-hop cover: hub 0 reaches everything; hub 1 helps 2-3."""
    s = LabelStore(4)
    s.add_delta(
        [
            (0, 0, 0.0),
            (1, 0, 1.0),
            (2, 0, 3.0),
            (3, 0, 6.0),
            (2, 1, 1.0),
            (3, 1, 2.0),
        ]
    )
    s.finalize()
    return s


class TestQueryDistance:
    def test_same_vertex(self, store):
        assert query_distance(store, 2, 2) == 0.0

    def test_common_hub_minimum(self, store):
        # 2-3: via hub 0 = 9, via hub 1 = 3.
        assert query_distance(store, 2, 3) == 3.0

    def test_single_hub(self, store):
        assert query_distance(store, 0, 1) == 1.0

    def test_no_common_hub(self):
        s = LabelStore(2)
        s.add(0, 0, 0.0)
        s.add(1, 1, 0.0)
        s.finalize()
        assert query_distance(s, 0, 1) == INF

    def test_empty_labels(self):
        s = LabelStore(2)
        s.finalize()
        assert query_distance(s, 0, 1) == INF


class TestQueryResult:
    def test_reports_hub(self, store):
        res = query_result(store, 2, 3)
        assert res.distance == 3.0
        assert res.hub == 1
        assert res.reachable
        assert res.entries_scanned > 0

    def test_same_vertex(self, store):
        res = query_result(store, 1, 1)
        assert res.distance == 0.0
        assert res.hub is None

    def test_unreachable(self):
        s = LabelStore(2)
        s.add(0, 0, 0.0)
        s.add(1, 1, 0.0)
        s.finalize()
        res = query_result(s, 0, 1)
        assert not res.reachable
        assert res.hub is None

    def test_entries_scanned_counts_consumed_entries(self, store):
        # L(2) = [(0, 3), (1, 1)]; L(3) = [(0, 6), (1, 2)].  The merge
        # join consumes both sides fully: i + j = 4.
        assert query_result(store, 2, 3).entries_scanned == 4

    def test_entries_scanned_matches_explain_accounting(self, store):
        # Satellite fix: QueryResult.entries_scanned must equal the
        # per-side consumed counts query_candidates reports to EXPLAIN.
        for s in range(4):
            for t in range(4):
                if s == t:
                    continue
                _, i, j = query_candidates(store, s, t)
                assert query_result(store, s, t).entries_scanned == i + j


class TestAgreement:
    def test_numpy_matches_merge(self, store):
        for s in range(4):
            for t in range(4):
                assert query_numpy(store, s, t) == query_distance(store, s, t)

    def test_tmp_matches_merge(self, store):
        tmp = [INF] * 4
        for s in range(4):
            touched = load_tmp(tmp, store, s, None)
            for t in range(4):
                if s == t:
                    continue
                got = query_via_tmp(tmp, store.hubs_of(t), store.dists_of(t))
                assert got == query_distance(store, s, t)
            clear_tmp(tmp, touched)
            assert all(x == INF for x in tmp)


class TestBatch:
    def test_matches_scalar_on_fixture(self, store):
        pairs = [(s, t) for s in range(4) for t in range(4)]
        out = query_distance_batch(store, pairs)
        assert out.tolist() == [
            query_distance(store, s, t) for s, t in pairs
        ]

    def test_vectorized_path_matches_scalar(self, store):
        # A batch of 160 pairs, repeats included, in one call.
        pairs = [(s, t) for s in range(4) for t in range(4)] * 10
        out = query_distance_batch(store, pairs)
        assert len(pairs) >= 32
        assert out.tolist() == [
            query_distance(store, s, t) for s, t in pairs
        ]

    def test_dtype_and_shape(self, store):
        out = query_distance_batch(store, [(0, 1)])
        assert out.dtype == np.float64
        assert out.shape == (1,)

    def test_duplicate_pairs(self, store):
        out = query_distance_batch(store, [(2, 3)] * 40)
        assert out.tolist() == [query_distance(store, 2, 3)] * 40


@pytest.fixture(params=["compiled", "python"])
def join_path(request):
    """Run the test on the compiled join, then on the Python reference."""
    if request.param == "python":
        with mock.patch.object(native, "load", return_value=None):
            yield request.param
    elif native.load() is None:
        pytest.skip("no C compiler: the compiled join is unavailable")
    else:
        yield request.param


@pytest.mark.usefixtures("join_path")
class TestOutOfRange:
    """A vertex outside [0, n) is a GraphError naming it, never a
    wrapped index (``indptr[-1]``) or a bare numpy IndexError."""

    @pytest.mark.parametrize("query", [query_distance, query_result])
    @pytest.mark.parametrize(
        "s, t, bad", [(-1, 2, -1), (2, -1, -1), (4, 2, 4), (2, 4, 4), (-1, -1, -1)]
    )
    def test_scalar_queries_raise(self, store, query, s, t, bad):
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            query(store, s, t)

    def test_batch_raises(self, store):
        with pytest.raises(GraphError, match="vertex 4 out of range"):
            query_distance_batch(store, [(0, 1), (2, 4)])

    def test_batch_rejects_fractional_ids(self, store):
        # Casting to int64 would answer (0.9, 3) as (0, 3).
        with pytest.raises(GraphError, match="integer vertex ids"):
            query_distance_batch(store, [(0.9, 3)])

    def test_huge_vertex_does_not_wrap(self, store):
        with pytest.raises(GraphError, match="out of range"):
            query_distance(store, 2**64, 1)


class TestCompiledJoin:
    def test_matches_reference(self, store, join_path):
        for s in range(4):
            for t in range(4):
                d, hub, scanned = merge_join(store, s, t)
                res = query_result(store, s, t)
                assert query_distance(store, s, t) == res.distance == d
                assert res.hub == (None if hub < 0 else hub)
                assert res.entries_scanned == scanned

    def test_corrupt_run_is_a_graph_error(self):
        if native.load() is None:
            pytest.skip("no C compiler: the compiled join is unavailable")
        # L(0) claims entries [0, 5) of a 2-entry array.
        bad = LabelStore.from_arrays(
            np.array([0, 5, 2]), np.array([0, 1]), np.array([0.0, 1.0]),
            validate=False,
        )
        with pytest.raises(GraphError, match="vertex 0"):
            query_distance(bad, 0, 1)
        with pytest.raises(GraphError, match="vertex 0"):
            query_distance_batch(bad, [(0, 1)])


class TestTmpHelpers:
    def test_load_with_extra(self, store):
        tmp = [INF] * 4
        touched = load_tmp(tmp, store, 1, (3, 0.0))
        assert tmp[0] == 1.0
        assert tmp[3] == 0.0
        clear_tmp(tmp, touched)
        assert all(x == INF for x in tmp)

    def test_load_duplicate_keeps_min(self):
        s = LabelStore(1)
        s.add(0, 0, 5.0)
        s.add(0, 0, 2.0)
        tmp = [INF]
        load_tmp(tmp, s, 0, None)
        assert tmp[0] == 2.0

    def test_query_via_tmp_empty_label(self):
        assert query_via_tmp([INF], [], []) == INF
