"""Pruned BFS: the original (unweighted) PLL of Akiba, Iwata & Yoshida.

The paper's contribution is generalising PLL to weighted graphs via
pruned Dijkstra (Algorithm 1); the unweighted original replaces the
priority queue with a FIFO frontier, dropping the log-factor.  We
implement it both as a correctness cross-check (on unit weights the two
must produce *identical* label sets, because BFS settles vertices in
the same distance order Dijkstra does) and as the faster choice for
users with unweighted graphs.

The class mirrors :class:`~repro.core.pruned_dijkstra.PrunedDijkstra`'s
``run``/``commit`` interface, so all builders can swap engines; a serial
unweighted build is ``build_serial(graph, engine="bfs")``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.core.labels import Delta, LabelStore
from repro.core.query import clear_tmp, load_tmp
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.order import ordering_rank, validate_ordering
from repro.obs.instruments import SearchTally
from repro.types import INF, SearchStats

__all__ = ["PrunedBFS"]


class PrunedBFS:
    """Reusable pruned-BFS engine for one graph and ordering.

    Edge weights are ignored: distances are hop counts (floats, to stay
    type-compatible with the weighted machinery).

    Args:
        graph: the graph to index.
        order: vertex ordering, most important first.
    """

    def __init__(self, graph: CSRGraph, order: Sequence[int]) -> None:
        self.graph = graph
        self.order = validate_ordering(graph, order)
        self.rank = ordering_rank(self.order)
        self._rank_list: List[int] = self.rank.tolist()
        self._adj = graph.adjacency_lists()
        n = graph.num_vertices
        self._dist: List[float] = [INF] * n
        self._tmp: List[float] = [INF] * n
        self._tally = SearchTally()

    def run(
        self, root: int, store: LabelStore, stats: Optional[SearchStats] = None
    ) -> Delta:
        """Pruned BFS from *root*; returns the label delta (hop counts)."""
        self.graph._check_vertex(root)
        adj = self._adj
        dist = self._dist
        tmp = self._tmp
        root_rank = self._rank_list[root]
        hubs_of = store.hubs_of
        dists_of = store.dists_of

        touched_tmp = load_tmp(tmp, store, root, (root_rank, 0.0))
        touched_dist: List[int] = [root]
        dist[root] = 0.0
        frontier = deque([root])
        out_v: List[int] = []
        out_d: List[float] = []

        n_settled = n_pruned = n_relax = n_scan = 0

        while frontier:
            u = frontier.popleft()
            d = dist[u]
            n_settled += 1
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
            out_v.append(u)
            out_d.append(d)
            nd = d + 1.0
            for v, _w in adj[u]:
                if dist[v] == INF:
                    dist[v] = nd
                    touched_dist.append(v)
                    frontier.append(v)
                n_relax += 1

        for v in touched_dist:
            dist[v] = INF
        clear_tmp(tmp, touched_tmp)

        self._tally.add(n_settled, n_pruned, len(out_v), n_settled, n_scan)
        if stats is not None:
            stats.root = root
            stats.settled = n_settled
            stats.pruned = n_pruned
            stats.labels_added = len(out_v)
            stats.relaxations = n_relax
            stats.heap_pushes = len(touched_dist)
            stats.heap_pops = n_settled
            stats.query_entries_scanned = n_scan
        return Delta(out_v, out_d)

    def commit(self, root: int, delta: Delta, store: LabelStore) -> None:
        """Append *delta* (from :meth:`run` on *root*) into *store*."""
        store.add_root(self._rank_list[root], delta)

    def flush_metrics(self) -> None:
        """Add the searches run since the last flush to the build
        counters; every builder calls it once at the end of its loop."""
        self._tally.flush()

    def rank_of(self, v: int) -> int:
        """Rank of vertex *v* under the bound ordering."""
        if not 0 <= v < len(self.rank):
            raise GraphError(f"vertex {v} out of range")
        return int(self.rank[v])

