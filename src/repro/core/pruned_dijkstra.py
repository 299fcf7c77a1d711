"""Algorithm 1: weighted pruned Dijkstra from one root.

One :class:`PrunedDijkstra` instance is bound to a graph and a vertex
ordering and owns reusable dense scratch arrays, so running ``n`` root
searches costs O(n) setup once instead of per root.  Each
:meth:`PrunedDijkstra.run` call performs the pruned search from one root
against a caller-supplied :class:`~repro.core.labels.LabelStore` and
returns the *delta* — the label entries this root would contribute —
without mutating the store.  Commit policy (immediately, on task
completion, or at a cluster sync point) is entirely the caller's,
which is what lets the serial builder, the thread pool, the
discrete-event simulator and the cluster substrate share this one
implementation.

The pruning test (line 6 of Algorithm 1) is
``QUERY(root, u) <= D[u]``: if the 2-hop cover over *already committed*
labels already explains the tentative distance, the search does not
label ``u`` and does not expand it.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.core.labels import LabelStore
from repro.core.query import clear_tmp, load_tmp
from repro.errors import OrderingError
from repro.obs.instruments import record_search
from repro.graph.csr import CSRGraph
from repro.graph.order import ordering_rank, validate_ordering
from repro.types import INF, SearchStats

__all__ = ["PrunedDijkstra"]

#: A delta: label entries ``(vertex, distance)`` contributed by one root.
Delta = List[Tuple[int, float]]


class PrunedDijkstra:
    """Reusable pruned-Dijkstra engine for one graph and ordering.

    Args:
        graph: the graph to index.
        order: vertex ordering, most important first; hub "ranks" used in
            labels are positions in this ordering.

    Thread safety: instances hold mutable scratch state, so each worker
    thread must own its *own* ``PrunedDijkstra`` (they may share the
    graph and the label store; see :mod:`repro.parallel.threads`).
    """

    def __init__(self, graph: CSRGraph, order: Sequence[int]) -> None:
        self.graph = graph
        self.order = validate_ordering(graph, order)
        self.rank = ordering_rank(self.order)
        self._rank_list: List[int] = self.rank.tolist()
        self._adj = graph.adjacency_lists()
        n = graph.num_vertices
        # Dense scratch arrays, reset sparsely after each run.
        self._dist: List[float] = [INF] * n
        self._tmp: List[float] = [INF] * n

    # ------------------------------------------------------------------
    def run(
        self, root: int, store: LabelStore, stats: Optional[SearchStats] = None
    ) -> Delta:
        """Pruned search from *root*; returns the label delta.

        Algorithm 1 needs only insert and delete-min, so the queue is an
        inlined lazy-deletion ``heapq`` that re-inserts on relaxation.

        Args:
            root: the root vertex (must belong to the bound graph).
            store: labels visible for pruning.  **Not mutated**: the
                caller commits the returned delta (as entries with hub
                ``rank[root]``) when its execution model says so.
            stats: optional counter object filled in place.

        Returns:
            List of ``(vertex, distance)`` pairs: for each kept vertex
            ``u``, the exact distance ``d(root, u)``.  The root itself is
            always first with distance 0.
        """
        self.graph._check_vertex(root)
        # Hoist everything the inner loop touches into locals.
        adj = self._adj
        dist = self._dist
        tmp = self._tmp
        rank = self._rank_list
        root_rank = rank[root]
        hubs_of = store.hubs_of
        dists_of = store.dists_of
        heappush = heapq.heappush
        heappop = heapq.heappop

        touched_tmp = load_tmp(tmp, store, root, (root_rank, 0.0))
        touched_dist: List[int] = [root]
        dist[root] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, root)]
        delta: Delta = []

        n_settled = n_pruned = n_relax = n_push = n_pop = n_scan = 0

        while heap:
            d, u = heappop(heap)
            n_pop += 1
            if d > dist[u]:
                continue  # stale lazy-deletion entry
            n_settled += 1
            # Pruning test: QUERY(root, u) over committed labels.
            hu = hubs_of(u)
            du = dists_of(u)
            q = INF
            # zip beats an index loop by ~35% here (measured; see the
            # profiling notes in DESIGN.md section 4b).
            for h_, d_ in zip(hu, du):
                total = tmp[h_] + d_
                if total < q:
                    q = total
            n_scan += len(hu)
            if q <= d:
                n_pruned += 1
                continue
            delta.append((u, d))
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    if dist[v] == INF:
                        touched_dist.append(v)
                    dist[v] = nd
                    heappush(heap, (nd, v))
                    n_push += 1
                n_relax += 1

        # Sparse reset of the scratch arrays.
        for v in touched_dist:
            dist[v] = INF
        clear_tmp(tmp, touched_tmp)

        record_search(n_settled, n_pruned, len(delta), n_pop, n_scan)
        if stats is not None:
            stats.root = root
            stats.settled = n_settled
            stats.pruned = n_pruned
            stats.labels_added = len(delta)
            stats.relaxations = n_relax
            stats.heap_pushes = n_push
            stats.heap_pops = n_pop
            stats.query_entries_scanned = n_scan
        return delta

    # ------------------------------------------------------------------
    def commit(self, root: int, delta: Delta, store: LabelStore) -> None:
        """Append *delta* (from :meth:`run` on *root*) into *store*."""
        root_rank = int(self.rank[root])
        add = store.add
        for v, d in delta:
            add(v, root_rank, d)

    def rank_of(self, v: int) -> int:
        """Rank (indexing position) of vertex *v* under the bound ordering."""
        if not 0 <= v < len(self.rank):
            raise OrderingError(f"vertex {v} out of range")
        return int(self.rank[v])
