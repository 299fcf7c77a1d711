"""Directed pruned landmark labeling.

Per root *r* (in importance order):

* a pruned **forward** Dijkstra adds ``(rank(r), d(r, v))`` to the
  *in-label* of every kept vertex v (hubs that reach v);
* a pruned **backward** Dijkstra adds ``(rank(r), d(v, r))`` to the
  *out-label* of every kept v (hubs v reaches).

The forward search from r prunes vertex v when
``QUERY(r, v) <= d`` already holds over committed labels, where
``QUERY(s, t) = min over h in OUT(s) ∩ IN(t) of d(s,h) + d(h,t)`` —
and symmetrically for the backward search.  The correctness argument is
the directed analogue of the paper's Proposition 1.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.labels import LabelStore
from repro.digraph.graph import DiCSRGraph
from repro.errors import GraphError, IndexError_, OrderingError
from repro.types import INF, IndexStats

__all__ = ["DirectedPLLIndex"]


def _degree_order(graph: DiCSRGraph) -> np.ndarray:
    score = graph.out_degrees() + graph.in_degrees()
    return np.argsort(-score, kind="stable").astype(np.int64)


class DirectedPLLIndex:
    """A directed 2-hop-cover index: out-labels and in-labels.

    Build with :meth:`build`; query with :meth:`distance`.

    Args:
        graph: the directed graph to index.
        order: importance order (defaults to total-degree descending).
    """

    def __init__(
        self, graph: DiCSRGraph, order: Optional[Sequence[int]] = None
    ) -> None:
        self.graph = graph
        n = graph.num_vertices
        if order is None:
            order = _degree_order(graph)
        order = np.asarray(order, dtype=np.int64)
        if len(order) != n or not np.array_equal(
            np.sort(order), np.arange(n)
        ):
            raise OrderingError("order must be a permutation of 0..n-1")
        self.order = order
        #: OUT(v): hubs v reaches, as (rank, d(v, hub)).
        self.out_labels = LabelStore(n)
        #: IN(v): hubs reaching v, as (rank, d(hub, v)).
        self.in_labels = LabelStore(n)
        self.stats: Optional[IndexStats] = None
        self._built = False

    # ------------------------------------------------------------------
    def build(self) -> IndexStats:
        """Index every root with a pruned forward + backward search."""
        t0 = time.perf_counter()
        n = self.graph.num_vertices
        out_adj = self.graph.out_adjacency()
        in_adj = self.graph.in_adjacency()
        dist: List[float] = [INF] * n
        tmp: List[float] = [INF] * n

        for rank, root in enumerate(self.order):
            root = int(root)
            # Forward: prune via QUERY(root, v) = OUT(root) x IN(v);
            # preload tmp with OUT(root) (+ the root's self-hub).
            self._pruned_search(
                root, rank, out_adj, self.out_labels, self.in_labels,
                dist, tmp,
            )
            # Backward: prune via QUERY(v, root) = OUT(v) x IN(root).
            self._pruned_search(
                root, rank, in_adj, self.in_labels, self.out_labels,
                dist, tmp,
            )
        self.out_labels.finalize()
        self.in_labels.finalize()
        elapsed = time.perf_counter() - t0
        entries = (
            self.out_labels.total_entries + self.in_labels.total_entries
        )
        sizes = [
            self.out_labels.label_size(v) + self.in_labels.label_size(v)
            for v in range(n)
        ]
        self.stats = IndexStats.from_sizes(sizes, elapsed)
        assert self.stats.total_entries == entries
        self._built = True
        return self.stats

    def _pruned_search(
        self,
        root: int,
        root_rank: int,
        adj: List[List[Tuple[int, float]]],
        source_side: LabelStore,
        target_side: LabelStore,
        dist: List[float],
        tmp: List[float],
    ) -> None:
        """One pruned Dijkstra; commits labels into *target_side*.

        ``source_side`` holds the root-side labels joined against each
        settled vertex's ``target_side`` label in the prune test.
        """
        touched_tmp: List[int] = []
        hubs = source_side.hubs_of(root)
        dists = source_side.dists_of(root)
        for h, d in zip(hubs, dists):
            if d < tmp[h]:
                tmp[h] = d
            touched_tmp.append(h)
        if 0.0 < tmp[root_rank]:
            tmp[root_rank] = 0.0
        touched_tmp.append(root_rank)

        heappush = heapq.heappush
        heappop = heapq.heappop
        hubs_of = target_side.hubs_of
        dists_of = target_side.dists_of
        touched_dist: List[int] = [root]
        dist[root] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, root)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            q = INF
            for h_, d_ in zip(hubs_of(u), dists_of(u)):
                total = tmp[h_] + d_
                if total < q:
                    q = total
            if q <= d:
                continue
            target_side.add(u, root_rank, d)
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    if dist[v] == INF:
                        touched_dist.append(v)
                    dist[v] = nd
                    heappush(heap, (nd, v))
        for v in touched_dist:
            dist[v] = INF
        for h in touched_tmp:
            tmp[h] = INF

    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        """Exact directed distance from *s* to *t*.

        Raises:
            GraphError: before :meth:`build` or on bad vertices.
        """
        if not self._built:
            raise GraphError("DirectedPLLIndex.build() first")
        self.graph._check_vertex(s)
        self.graph._check_vertex(t)
        if s == t:
            return 0.0
        # Merge join OUT(s) with IN(t) — reuse the undirected kernel by
        # joining the two finalized stores directly.
        hs = self.out_labels.finalized_hubs(s)
        ds = self.out_labels.finalized_dists(s)
        ht = self.in_labels.finalized_hubs(t)
        dt = self.in_labels.finalized_dists(t)
        i = j = 0
        best = INF
        while i < len(hs) and j < len(ht):
            a, b = hs[i], ht[j]
            if a == b:
                total = ds[i] + dt[j]
                if total < best:
                    best = total
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return float(best)

    def verify_against_dijkstra(self, sources: Sequence[int]) -> None:
        """Check exactness from the given sources (tests/tools).

        Raises:
            IndexError_: on the first pair that disagrees with Dijkstra.
        """
        from repro.core.paths import isclose_distance
        from repro.digraph.dijkstra import dijkstra_forward

        for s in sources:
            truth = dijkstra_forward(self.graph, int(s))
            for t in range(self.graph.num_vertices):
                got = self.distance(int(s), t)
                if not isclose_distance(got, truth[t]):
                    raise IndexError_(
                        f"distance({s}, {t}) = {got}, "
                        f"Dijkstra says {truth[t]}",
                        source=int(s), target=t,
                    )

    def avg_label_size(self) -> float:
        """Mean (out + in) entries per vertex."""
        return (
            self.out_labels.total_entries + self.in_labels.total_entries
        ) / max(1, self.graph.num_vertices)
