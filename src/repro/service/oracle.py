"""The in-process distance-serving facade.

:class:`DistanceOracle` wraps a built index with the conveniences a
search backend needs: an LRU cache over point queries (search traffic
is heavily repeated — the same influencer pairs recur), batch and kNN
entry points, and counters for observability.  Thread-safe: a lock
guards the cache; the underlying finalized index is read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check import hooks as _check_hooks
from repro.core.knn import KNNIndex
from repro.errors import GraphError
from repro.obs import config as _obs_config
from repro.obs import qlog as _qlog
from repro.obs.instruments import ORACLE_CACHE_HITS, ORACLE_QUERIES

__all__ = ["DistanceOracle", "OracleStats"]

_INF = float("inf")

#: Pairs per kernel call after the first when :meth:`DistanceOracle.batch`
#: has a time budget; the budget is checked between chunks.
BATCH_CHUNK = 256


def _outcome(value: float) -> str:
    return "unreachable" if value == _INF else "ok"


@dataclass
class OracleStats:
    """Request counters.

    Attributes:
        queries: point-distance requests served.
        cache_hits: requests answered from the LRU cache.
        batch_queries: batch requests served.
        knn_queries: k-nearest requests served.
        path_queries: path-reconstruction requests served.
        explain_queries: EXPLAIN requests served.
    """

    queries: int = 0
    cache_hits: int = 0
    batch_queries: int = 0
    knn_queries: int = 0
    path_queries: int = 0
    explain_queries: int = 0

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction of point queries (0 when none served)."""
        return self.cache_hits / self.queries if self.queries else 0.0


class DistanceOracle:
    """Serving facade over a finalized PLL index.

    Args:
        index: a built :class:`~repro.core.index.PLLIndex`.
        cache_size: LRU capacity for point queries (0 disables caching).
        build_knn: build the inverted-label kNN structure eagerly;
            otherwise it is built lazily on the first kNN request.
    """

    def __init__(
        self, index, cache_size: int = 4096, build_knn: bool = False
    ) -> None:
        if cache_size < 0:
            raise GraphError("cache_size must be non-negative")
        self.index = index
        self.cache_size = cache_size
        self.stats = OracleStats()
        self._cache: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        self._lock = _check_hooks.make_lock("oracle._cache_lock")
        self._knn: Optional[KNNIndex] = (
            KNNIndex(index.store) if build_knn else None
        )

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of queryable vertices."""
        return self.index.num_vertices

    def distance(self, s: int, t: int) -> float:
        """Cached exact distance between *s* and *t*.

        When a query-log recorder is installed
        (:func:`repro.obs.qlog.install`), a sampled fraction of calls is
        recorded with true service time; a sampled cache *miss* goes
        through :meth:`PLLIndex.query <repro.core.index.PLLIndex.query>`
        — same distance, same merge-join cost — so the record carries
        the real ``entries_scanned``.  The unsampled path is unchanged.
        """
        recorder = _qlog._active
        sampled = recorder is not None and recorder.should_sample()
        t0 = perf_counter() if sampled else 0.0
        key = (s, t) if s <= t else (t, s)
        if _obs_config.METRICS:
            ORACLE_QUERIES.inc()
        with self._lock:
            self.stats.queries += 1
            if self.cache_size:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.stats.cache_hits += 1
                    if _obs_config.METRICS:
                        ORACLE_CACHE_HITS.inc()
                    if sampled:
                        recorder.record(
                            "distance",
                            s,
                            t,
                            (perf_counter() - t0) * 1e6,
                            cache_hit=True,
                            outcome=_outcome(cached),
                            req_id=_qlog.current_req_id(),
                        )
                    return cached
        scanned = 0
        if sampled:
            result = self.index.query(s, t)
            value = result.distance
            scanned = result.entries_scanned
        else:
            value = self.index.distance(s, t)
        if self.cache_size:
            with self._lock:
                self._cache[key] = value
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        if sampled:
            recorder.record(
                "distance",
                s,
                t,
                (perf_counter() - t0) * 1e6,
                cache_hit=False,
                entries_scanned=scanned,
                outcome=_outcome(value),
                req_id=_qlog.current_req_id(),
            )
        return value

    def batch(
        self,
        pairs: Sequence[Tuple[int, int]],
        budget: Optional[float] = None,
    ) -> List[float]:
        """Distances for many ``(s, t)`` pairs.

        Cache hits are served from the LRU exactly as :meth:`distance`
        would; all misses go through one batch query
        (:meth:`PLLIndex.distance_batch
        <repro.core.index.PLLIndex.distance_batch>`, one compiled call
        looping the merge join over the pairs) instead of a per-pair
        Python loop, and are inserted into the cache after.  Per-pair
        counters advance as if each pair were served individually.  With
        a query-log recorder installed, each pair is independently
        sampled and recorded with ``op="batch"`` and the batch wall
        amortised over its pairs (the batch call does not time or
        scan-count pairs individually).

        Args:
            pairs: the ``(s, t)`` pairs.
            budget: seconds the batch may take, or ``None`` for no
                limit.  With a budget the first pair is served alone and
                the rest in chunks of at most :data:`BATCH_CHUNK` pairs;
                once *budget* has elapsed at a chunk boundary the
                distances served so far are returned, so the result is
                then shorter than *pairs*.  The first pair is always
                served.
        """
        norm = [(int(s), int(t)) for s, t in pairs]
        with self._lock:
            self.stats.batch_queries += 1
        if budget is None:
            return self._serve(norm)
        start = perf_counter()
        out = self._serve(norm[:1])
        while len(out) < len(norm) and perf_counter() - start < budget:
            out += self._serve(norm[len(out) : len(out) + BATCH_CHUNK])
        return out

    def _serve(self, norm: List[Tuple[int, int]]) -> List[float]:
        """One LRU pass over *norm*, then one kernel call for the
        misses (the body of :meth:`batch`)."""
        m = len(norm)
        if m == 0:
            return []
        recorder = _qlog._active
        t0 = perf_counter() if recorder is not None else 0.0
        if _obs_config.METRICS:
            ORACLE_QUERIES.inc(m)
        out: List[float] = [0.0] * m
        # Canonical (min, max) key -> positions in the batch; the dict
        # both dedups repeated pairs and keeps the kernel's input order
        # deterministic.
        misses: Dict[Tuple[int, int], List[int]] = {}
        hits = 0
        with self._lock:
            self.stats.queries += m
            for i, (s, t) in enumerate(norm):
                key = (s, t) if s <= t else (t, s)
                if self.cache_size:
                    cached = self._cache.get(key)
                    if cached is not None:
                        self._cache.move_to_end(key)
                        out[i] = cached
                        hits += 1
                        continue
                misses.setdefault(key, []).append(i)
            self.stats.cache_hits += hits
        if hits and _obs_config.METRICS:
            ORACLE_CACHE_HITS.inc(hits)
        if misses:
            values = self.index.distance_batch(list(misses)).tolist()
            for positions, value in zip(misses.values(), values):
                for i in positions:
                    out[i] = value
            if self.cache_size:
                with self._lock:
                    for key, value in zip(misses, values):
                        self._cache[key] = value
                        self._cache.move_to_end(key)
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
        if recorder is not None:
            per_pair_us = (perf_counter() - t0) * 1e6 / m
            req_id = _qlog.current_req_id()
            miss_positions = {
                i for positions in misses.values() for i in positions
            }
            for i, (s, t) in enumerate(norm):
                if recorder.should_sample():
                    recorder.record(
                        "batch",
                        s,
                        t,
                        per_pair_us,
                        cache_hit=i not in miss_positions,
                        outcome=_outcome(out[i]),
                        req_id=req_id,
                    )
        return out

    def k_nearest(self, s: int, k: int) -> List[Tuple[int, float]]:
        """The *k* nearest vertices to *s* (exact, via inverted labels)."""
        with self._lock:
            self.stats.knn_queries += 1
            if self._knn is None:
                self._knn = KNNIndex(self.index.store)
            knn = self._knn
        return knn.k_nearest(s, k)

    def shortest_path(self, s: int, t: int) -> Optional[List[int]]:
        """One shortest path (needs the index's attached graph)."""
        with self._lock:
            self.stats.path_queries += 1
        return self.index.shortest_path(s, t)

    def explain(self, s: int, t: int):
        """EXPLAIN one query (uncached: the point is the fresh scan).

        Returns:
            A :class:`~repro.obs.explain.QueryExplanation`; its
            ``distance`` equals :meth:`distance` exactly.
        """
        with self._lock:
            self.stats.explain_queries += 1
        return self.index.explain(s, t)

    def cache_info(self) -> Tuple[int, int]:
        """``(entries, capacity)`` of the LRU cache."""
        with self._lock:
            return len(self._cache), self.cache_size

    def clear_cache(self) -> None:
        """Drop all cached distances (e.g. after an index swap)."""
        with self._lock:
            self._cache.clear()
