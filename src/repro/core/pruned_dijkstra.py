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

The search runs in compiled code (``pruned_dijkstra.c``) whenever a C
compiler could build it, scanning the store's label arena
(:meth:`LabelStore.arena <repro.core.labels.LabelStore.arena>`) as
plain arrays under the GIL.  The Python loop
(:meth:`PrunedDijkstra._run_python`) is the reference it must match
entry for entry and counter for counter, and the fallback when there is
no compiler or the store is frozen.  See DESIGN.md section 17.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import native
from repro.core.labels import Delta, LabelStore
from repro.core.query import clear_tmp, load_tmp
from repro.errors import GraphError, OrderingError
from repro.obs.instruments import SearchTally
from repro.graph.csr import CSRGraph
from repro.graph.order import ordering_rank, validate_ordering
from repro.types import INF, SearchStats

__all__ = ["Delta", "PrunedDijkstra"]

#: One heap entry of the kernel: ``struct {double d; int64_t v;}``.
_HEAP_ITEM = np.dtype([("d", np.float64), ("v", np.int64)])
#: Slots of the kernel's context array (``native.SEARCH_SLOTS``).
_SLOT = {name: i for i, name in enumerate(native.SEARCH_SLOTS)}
#: Entries per delta pool, at least; see :meth:`PrunedDijkstra._new_pool`.
_POOL_MIN = 1 << 12


def _load_kernel() -> Optional[Callable[..., int]]:
    """The compiled per-root search ``pd_run``, or None when the
    library cannot be built (:func:`repro.core.native.load`)."""
    lib = native.load()
    return None if lib is None else lib.pd_run


class PrunedDijkstra:
    """Reusable pruned-Dijkstra engine for one graph and ordering.

    Args:
        graph: the graph to index.
        order: vertex ordering, most important first; hub "ranks" used in
            labels are positions in this ordering.

    With the compiled kernel, one root costs one ``pd_run`` call in
    :meth:`run` and one ``ls_append`` call, through
    :meth:`LabelStore.add_root <repro.core.labels.LabelStore.add_root>`,
    in :meth:`commit`.  ``pd_run`` reads every pointer from one context
    array that the engine fills once; only the arena's slots change, when
    the store hands over a new arena.  The delta it returns is a view of
    an engine-owned pool, not a copy.

    Thread safety: instances hold mutable scratch state, so each worker
    thread must own its *own* ``PrunedDijkstra`` (they may share the
    graph and the label store; see :mod:`repro.parallel.threads`).  The
    compiled kernel holds the GIL for a whole search, so threads sharing
    a store interleave per root rather than per heap pop.
    """

    def __init__(self, graph: CSRGraph, order: Sequence[int]) -> None:
        self.graph = graph
        self.order = validate_ordering(graph, order)
        self.rank = ordering_rank(self.order)
        self._rank_list: List[int] = self.rank.tolist()
        # The Python loop's adjacency and scratch lists, built on its
        # first run only.
        self._adj: Optional[List[List[Tuple[int, float]]]] = None
        self._dist: List[float] = []
        self._tmp: List[float] = []
        self._tally = SearchTally()
        self._kernel = _load_kernel()
        if self._kernel is not None:
            n = graph.num_vertices
            # Contiguous arrays of the dtypes the C side reads; the
            # engine holds them so the pointers stay valid.
            indices = np.ascontiguousarray(graph.indices, dtype=np.int32)
            self._counts = np.zeros(6, dtype=np.int64)
            self._arrays = {
                "indptr": np.ascontiguousarray(graph.indptr, dtype=np.int64),
                "indices": indices,
                "weights": np.ascontiguousarray(graph.weights, dtype=np.float64),
                "dist": np.full(n, INF),
                "tmp": np.full(n, INF),
                "touched": np.empty(n, dtype=np.int64),
                "heap": np.empty(len(indices) + 1, dtype=_HEAP_ITEM),
                "cnt": self._counts,
            }
            self._cx = np.zeros(len(_SLOT), dtype=np.int64)
            self._cx[_SLOT["n"]] = n
            for name, array in self._arrays.items():
                self._cx[_SLOT[name]] = array.ctypes.data
            self._cx_addr = self._cx.ctypes.data
            # The store arena last scanned (held, so its pointers stay
            # valid), and the delta pool.
            self._scanned: Any = None
            self._new_pool()

    def _new_pool(self) -> None:
        """Fresh delta buffers for the kernel to write into.

        Each delta is a view of the next free stretch, so it needs no
        copy and its addresses are known; a pool lives as long as a
        delta of it does.  Numpy sees the pools read-only.
        """
        size = max(_POOL_MIN, 2 * self.graph.num_vertices)
        verts = np.empty(size, dtype=np.int64)
        dists = np.empty(size, dtype=np.float64)
        self._pool = (verts, dists, verts.ctypes.data, dists.ctypes.data)
        self._cx[_SLOT["out_v"]] = self._pool[2]
        self._cx[_SLOT["out_d"]] = self._pool[3]
        verts.setflags(write=False)
        dists.setflags(write=False)
        self._at = 0

    # ------------------------------------------------------------------
    def run(
        self, root: int, store: LabelStore, stats: Optional[SearchStats] = None
    ) -> Delta:
        """Pruned search from *root*; returns the label delta.

        Runs the compiled kernel when it loaded and *store* has a label
        arena, else the Python loop; both give the same delta and
        counters.

        Args:
            root: the root vertex (must belong to the bound graph).
            store: labels visible for pruning.  **Not mutated**: the
                caller commits the returned delta (with :meth:`commit`,
                as entries with hub ``rank[root]``) when its execution
                model says so.
            stats: optional counter object filled in place.

        Returns:
            A :class:`~repro.core.labels.Delta`: for each kept vertex
            ``u``, in settling order, ``u`` in ``verts`` and the exact
            distance ``d(root, u)`` in ``dists``.  The root itself is
            always first with distance 0.

        Raises:
            GraphError: for a root outside the graph, a store with fewer
                vertices than the graph, or (compiled kernel) a label
                entry whose hub rank is outside ``[0, n)``.
        """
        self.graph._check_vertex(root)
        arena = store.arena() if self._kernel is not None else None
        if arena is None:
            return self._run_python(root, store, stats)
        n = self.graph.num_vertices
        if store.n < n:
            raise GraphError(
                f"label store holds {store.n} vertices, the graph {n}"
            )
        if arena is not self._scanned:
            # A new arena (a compaction or a thaw).
            self._scanned = arena
            off, size, ah, ad, _cap = arena
            self._cx[_SLOT["off"]:_SLOT["na"] + 1] = (
                off.ctypes.data, size.ctypes.data, ah.ctypes.data,
                ad.ctypes.data, len(ah),
            )
        at = self._at
        if at + n > len(self._pool[0]):
            self._new_pool()
            at = 0
        k = self._kernel(self._cx_addr, root, self._rank_list[root], at)
        counts = self._counts.tolist()
        if k < 0:
            v, i = counts[0], counts[1]
            if i < 0:
                raise GraphError(
                    f"label run of vertex {v} lies outside the arena", vertex=v
                )
            hub = int(arena[2][arena[0][v] + i])
            raise GraphError(
                f"label entry {i} of vertex {v}: hub {hub} "
                f"(ranks lie in [0, {n}))",
                vertex=v, hub=hub,
            )
        self._at = at + k
        verts, dists, vptr, dptr = self._pool
        delta = Delta.view(
            verts[at:at + k], dists[at:at + k], vptr + 8 * at, dptr + 8 * at
        )
        _report(self._tally, root, k, stats, *counts)
        return delta

    def _run_python(
        self, root: int, store: LabelStore, stats: Optional[SearchStats]
    ) -> Delta:
        """The reference pruned search, in Python.

        Algorithm 1 needs only insert and delete-min, so the queue is an
        inlined lazy-deletion ``heapq`` that re-inserts on relaxation.
        """
        if self._adj is None:
            n = self.graph.num_vertices
            self._adj = self.graph.adjacency_lists()
            self._dist = [INF] * n
            self._tmp = [INF] * n
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
        out_v: List[int] = []
        out_d: List[float] = []

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
            out_v.append(u)
            out_d.append(d)
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

        _report(
            self._tally, root, len(out_v), stats,
            n_settled, n_pruned, n_relax, n_push, n_pop, n_scan,
        )
        return Delta(out_v, out_d)

    # ------------------------------------------------------------------
    def commit(self, root: int, delta: Delta, store: LabelStore) -> None:
        """Append *delta* (from :meth:`run` on *root*) into *store*."""
        store.add_root(self._rank_list[root], delta)

    def flush_metrics(self) -> None:
        """Add the searches run since the last flush to the build
        counters; every builder calls it once at the end of its loop."""
        self._tally.flush()

    def rank_of(self, v: int) -> int:
        """Rank (indexing position) of vertex *v* under the bound ordering."""
        if not 0 <= v < len(self.rank):
            raise OrderingError(f"vertex {v} out of range")
        return int(self.rank[v])


def _report(
    tally: SearchTally,
    root: int,
    labels: int,
    stats: Optional[SearchStats],
    settled: int,
    pruned: int,
    relaxations: int,
    pushes: int,
    pops: int,
    scanned: int,
) -> None:
    """Count one search in *tally*, and copy its counters into *stats*."""
    tally.add(settled, pruned, labels, pops, scanned)
    if stats is not None:
        stats.root = root
        stats.settled = settled
        stats.pruned = pruned
        stats.labels_added = labels
        stats.relaxations = relaxations
        stats.heap_pushes = pushes
        stats.heap_pops = pops
        stats.query_entries_scanned = scanned
