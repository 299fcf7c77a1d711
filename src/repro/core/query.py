"""QUERY(s, t, L): 2-hop-cover distance evaluation.

Given labels ``L(s)`` and ``L(t)``, the distance is::

    min over common hubs u of  d(u, s) + d(u, t)

:func:`query_distance`, :func:`query_result` and
:func:`query_distance_batch` serve it with one merge join over the
finalized (sorted) labels: the compiled ``pq_join`` (``pq_batch`` loops
it over a batch), or without a compiler its Python reference
:func:`merge_join`; both answer bit for bit alike.  The other joins:

* :func:`query_candidates` keeps every common hub, for EXPLAIN.
* :func:`query_via_tmp` — dense scratch-array join over *mutable*
  labels; this is what the pruning test inside Algorithm 1 uses, and it
  works mid-build when labels are unsorted.
* :func:`query_numpy` — vectorised ``np.intersect1d`` join, for the
  query-implementation ablation.
"""

from __future__ import annotations

import ctypes
import numbers
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core import native
from repro.core.labels import LabelStore
from repro.errors import GraphError
from repro.types import INF, QueryResult

__all__ = [
    "merge_join",
    "query_distance",
    "query_distance_batch",
    "query_via_tmp",
    "query_numpy",
    "query_result",
    "query_candidates",
]

#: ``pq_join``'s ``out``: hub and entries consumed, or after a NaN an
#: error code (-2 a vertex outside ``[0, n)``, -3 a run outside the
#: label arrays) and the vertex.
_Out = ctypes.c_int64 * 2


def merge_join(store: LabelStore, s: int, t: int) -> Tuple[float, int, int]:
    """QUERY(s, t) in Python, the reference for ``pq_join``:
    ``(distance, hub, scanned)``.

    The least float64 sum ``d(u, s) + d(u, t)`` over the common hubs
    (``inf`` when there is none, 0 when ``s == t``), the rank of the
    first hub reaching it (-1 when none does), and the label entries
    consumed on both sides (``i + j``).

    Raises:
        GraphError: for *s* or *t* not an integer in ``[0, n)``.
    """
    n = store.n
    for v in (s, t):
        if not (isinstance(v, numbers.Integral) and 0 <= v < n):
            raise GraphError(f"vertex {v} out of range [0, {n})", vertex=v)
    if s == t:
        return 0.0, -1, 0
    hs = store.finalized_hubs(s).tolist()
    ds = store.finalized_dists(s).tolist()
    ht = store.finalized_hubs(t).tolist()
    dt = store.finalized_dists(t).tolist()
    i = j = 0
    ls, lt = len(hs), len(ht)
    best, hub = INF, -1
    while i < ls and j < lt:
        a, b = hs[i], ht[j]
        if a == b:
            total = ds[i] + dt[j]
            if total < best:
                best, hub = total, a
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return float(best), hub, i + j


def _kernel(store: LabelStore) -> Optional[Tuple[Any, Tuple[Any, ...]]]:
    """The compiled library and *store*'s query context (held while the
    kernel reads it), or None without a compiler or finalized labels."""
    query = store.query_context()
    lib = None if query is None else native.load()
    return None if lib is None else (lib, query)


def _join(
    store: LabelStore, s: int, t: int, out: Optional[ctypes.Array]
) -> Optional[float]:
    """``pq_join`` on *store*, or None where :func:`merge_join` must
    answer: no kernel, or *s* or *t* not an int64 in ``[0, n)``."""
    kernel = _kernel(store)
    try:
        if kernel is None or not (0 <= s < store.n and 0 <= t < store.n):
            return None
        d = kernel[0].pq_join(kernel[1][0], s, t, out)
    except (TypeError, ctypes.ArgumentError):
        return None
    if d != d:
        raise _failure(kernel, store.n, s, t)
    return d


def _failure(kernel: Tuple[Any, Any], n: int, s: int, t: int) -> GraphError:
    """The error for a pair ``pq_join`` rejected."""
    out = _Out()
    kernel[0].pq_join(kernel[1][0], s, t, out)
    if out[0] == -3:
        return GraphError(
            f"label run of vertex {out[1]} lies outside the label arrays",
            vertex=out[1],
        )
    return GraphError(f"vertex {out[1]} out of range [0, {n})", vertex=out[1])


def query_distance(store: LabelStore, s: int, t: int) -> float:
    """Distance between *s* and *t* by sorted merge join.

    Requires :meth:`LabelStore.finalize` to have been called.  ``s == t``
    returns 0 (the trivial path), matching Dijkstra.  A vertex outside
    ``[0, n)`` or a corrupt label run is a :class:`GraphError`.
    """
    d = _join(store, s, t, None)
    return merge_join(store, s, t)[0] if d is None else d


def query_result(store: LabelStore, s: int, t: int) -> QueryResult:
    """Like :func:`query_distance` but reporting the meeting hub and cost.

    The returned hub is a *rank* (position in the indexing order); map it
    back to a vertex id with the index's ordering if needed.
    ``entries_scanned`` counts label entries *consumed* across both
    sides (``i + j``), the same accounting :func:`query_candidates`
    reports to EXPLAIN.
    """
    out = _Out()
    d = _join(store, s, t, out)
    hub, scanned = out
    if d is None:
        d, hub, scanned = merge_join(store, s, t)
    return QueryResult(
        distance=d, hub=None if hub < 0 else hub, entries_scanned=scanned
    )


def query_distance_batch(store: LabelStore, pairs) -> np.ndarray:
    """Distances for an ``(m, 2)`` array-like of ``(s, t)`` pairs, as a
    float64 array (``inf`` for unreachable pairs), bit-identical to
    :func:`query_distance` per pair: one ``pq_batch`` call, or
    :func:`merge_join` per pair without a compiler.  Finalizes *store*.

    Raises:
        GraphError: for malformed *pairs* or out-of-range vertex ids.
    """
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or (
        pairs.size and (pairs.shape[1] != 2 or pairs.dtype.kind not in "iu")
    ):
        raise GraphError("pairs must be an (m, 2) array of integer vertex ids")
    pairs = np.ascontiguousarray(pairs, dtype=np.int64)
    m = len(pairs)
    out = np.empty(m, dtype=np.float64)
    store.finalize()
    kernel = _kernel(store)
    if kernel is None:
        for k, (s, t) in enumerate(pairs.tolist()):
            out[k] = merge_join(store, s, t)[0]
        return out
    lib, query = kernel
    k = lib.pq_batch(query[0], pairs.ctypes.data, m, out.ctypes.data)
    if k < m:
        raise _failure(kernel, store.n, *pairs[k].tolist())
    return out


def query_candidates(
    store: LabelStore, s: int, t: int
) -> Tuple[List[Tuple[int, float, float]], int, int]:
    """Every common hub of ``L(s)``/``L(t)`` with both-side distances.

    The diagnostic sibling of :func:`query_distance`: a separate merge
    join that *keeps* every meeting hub instead of reducing to the
    minimum, so EXPLAIN (:mod:`repro.obs.explain`) can attribute the
    answer.  Deliberately a distinct code path — the production query
    loop above carries no instrumentation and no branches for this.

    Returns:
        ``(candidates, scanned_s, scanned_t)``: candidates is a list of
        ``(hub_rank, d_hub_s, d_hub_t)`` in hub-rank order; the scan
        counts are how many label entries the join consumed on each
        side (the query-cost attribution).
    """
    if s == t:
        return [], 0, 0
    hs = store.finalized_hubs(s)
    ds = store.finalized_dists(s)
    ht = store.finalized_hubs(t)
    dt = store.finalized_dists(t)
    i = j = 0
    ls, lt = len(hs), len(ht)
    candidates: List[Tuple[int, float, float]] = []
    while i < ls and j < lt:
        a, b = hs[i], ht[j]
        if a == b:
            candidates.append((int(a), float(ds[i]), float(dt[j])))
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return candidates, i, j


def query_via_tmp(
    tmp: List[float],
    hubs_t: List[int],
    dists_t: List[float],
) -> float:
    """Join one side's label (preloaded into *tmp*) against the other's.

    ``tmp`` is a dense array indexed by hub rank holding ``d(hub, s)``
    for every hub in ``L(s)`` and ``inf`` elsewhere.  This form needs no
    sorting, so it works on live labels during indexing; it is the exact
    QUERY of the paper's Algorithm 1 line 6.

    Args:
        tmp: dense scratch array (length = number of vertices).
        hubs_t: hub ranks of the other endpoint's label.
        dists_t: distances parallel to *hubs_t*.

    Returns:
        The minimum hub sum, ``inf`` if the labels share no hub.
    """
    best = INF
    for i in range(len(hubs_t)):
        total = tmp[hubs_t[i]] + dists_t[i]
        if total < best:
            best = total
    return best


def query_numpy(store: LabelStore, s: int, t: int) -> float:
    """Vectorised join via ``np.intersect1d`` (ablation variant)."""
    if s == t:
        return 0.0
    hs = store.finalized_hubs(s)
    ht = store.finalized_hubs(t)
    common, is_, it_ = np.intersect1d(
        hs, ht, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        return INF
    ds = store.finalized_dists(s)[is_]
    dt = store.finalized_dists(t)[it_]
    return float(np.min(ds + dt))


def load_tmp(
    tmp: List[float], store: LabelStore, v: int, extra: Tuple[int, float] | None
) -> List[int]:
    """Fill *tmp* with ``L(v)`` (and one extra entry); return touched ranks.

    Used by the pruned search to prepare the root side of the query.  The
    caller must later pass the returned rank list to :func:`clear_tmp`.
    When the same hub occurs twice (delayed-sync duplicates) the smaller
    distance wins.
    """
    touched: List[int] = []
    hubs = store.hubs_of(v)
    dists = store.dists_of(v)
    for i in range(len(hubs)):
        h = hubs[i]
        d = dists[i]
        if d < tmp[h]:
            tmp[h] = d
        touched.append(h)
    if extra is not None:
        h, d = extra
        if d < tmp[h]:
            tmp[h] = d
        touched.append(h)
    return touched


def clear_tmp(tmp: List[float], touched: List[int]) -> None:
    """Reset the scratch array positions recorded by :func:`load_tmp`."""
    for h in touched:
        tmp[h] = INF
