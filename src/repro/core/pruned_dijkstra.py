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

import ctypes
import hashlib
import heapq
import importlib.machinery
import importlib.resources
import logging
import os
import subprocess
import tempfile
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.labels import LabelStore
from repro.core.query import clear_tmp, load_tmp
from repro.errors import GraphError, OrderingError
from repro.obs.instruments import record_search
from repro.graph.csr import CSRGraph
from repro.graph.order import ordering_rank, validate_ordering
from repro.types import INF, SearchStats

__all__ = ["PrunedDijkstra"]

#: A delta: label entries ``(vertex, distance)`` contributed by one root.
Delta = List[Tuple[int, float]]

logger = logging.getLogger(__name__)

#: The C compiler that builds the kernel.
COMPILER = "cc"

_SOURCE = "pruned_dijkstra.c"
#: One heap entry of the kernel: ``struct {double d; int64_t v;}``.
_HEAP_ITEM = np.dtype([("d", np.float64), ("v", np.int64)])
_UNTRIED: Any = object()
_kernel: Any = _UNTRIED
_kernel_lock = threading.Lock()


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/parapll`` or ``~/.cache/parapll``, whichever is
    writable first; else a private new directory under the temp dir."""
    for base in (
        os.environ.get("XDG_CACHE_HOME"),
        os.path.join(os.path.expanduser("~"), ".cache"),
    ):
        if not base:
            continue
        path = os.path.join(base, "parapll")
        try:
            os.makedirs(path, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK):
            return path
    return tempfile.mkdtemp(prefix="parapll-")


def _compile_kernel() -> Callable[..., int]:
    """The kernel's ``pd_run``, compiled into the cache unless there.

    The object's name carries the interpreter's ``EXT_SUFFIX`` (the
    first extension suffix), which names the platform and ABI, beside
    the source hash.  It is written to a per-process file and renamed
    into place, so a concurrent process never loads half a file.
    """
    source = importlib.resources.files("repro.core").joinpath(_SOURCE)
    key = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(_cache_dir(), f"pruned_dijkstra-{key}{suffix}")
    if not os.path.exists(path):
        part = f"{path}.{os.getpid()}.tmp"
        try:
            with importlib.resources.as_file(source) as src:
                subprocess.run(
                    [COMPILER, "-O2", "-shared", "-fPIC", str(src), "-o", part],
                    check=True, capture_output=True, text=True, timeout=300,
                )
            os.replace(part, path)
        finally:
            if os.path.exists(part):
                os.unlink(part)
    # PyDLL keeps the GIL for the whole search (DESIGN.md section 17).
    fn = ctypes.PyDLL(path).pd_run
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64] + [ptr] * 4 + [i64] + [ptr] * 3 + [i64, i64] + [ptr] * 7
    fn.restype = i64
    return fn


def _load_kernel() -> Optional[Callable[..., int]]:
    """The compiled per-root search, or None when it cannot be built.

    Nothing compiles at import: the first call in a process compiles or
    loads the cached object.  A failure is logged once per process, and
    every engine then runs the Python loop.
    """
    global _kernel
    with _kernel_lock:
        if _kernel is _UNTRIED:
            try:
                _kernel = _compile_kernel()
            except (OSError, subprocess.SubprocessError) as exc:
                detail = (getattr(exc, "stderr", None) or str(exc)).strip()
                logger.warning(
                    "compiled pruned search unavailable, using the Python "
                    "loop: %s", detail[-500:]
                )
                _kernel = None
        return _kernel


class PrunedDijkstra:
    """Reusable pruned-Dijkstra engine for one graph and ordering.

    Args:
        graph: the graph to index.
        order: vertex ordering, most important first; hub "ranks" used in
            labels are positions in this ordering.

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
        #: The last kernel delta: ``(copy of the list, verts, dists)``.
        self._last: Optional[Tuple[Delta, np.ndarray, np.ndarray]] = None
        self._kernel = _load_kernel()
        if self._kernel is not None:
            n = graph.num_vertices
            # Contiguous arrays of the dtypes the C side reads; the
            # engine holds them so the pointers stay valid.
            csr = (
                np.ascontiguousarray(graph.indptr, dtype=np.int64),
                np.ascontiguousarray(graph.indices, dtype=np.int32),
                np.ascontiguousarray(graph.weights, dtype=np.float64),
            )
            self._out_v = np.empty(n, dtype=np.int64)
            self._out_d = np.empty(n, dtype=np.float64)
            self._counts = np.zeros(6, dtype=np.int64)
            scratch = (
                np.full(n, INF),  # dist
                np.full(n, INF),  # tmp
                np.empty(n, dtype=np.int64),  # touched
                np.empty(len(csr[1]) + 1, dtype=_HEAP_ITEM),  # heap
                self._out_v,
                self._out_d,
                self._counts,
            )
            self._arrays = csr + scratch
            self._csr_args = tuple(a.ctypes.data for a in csr)
            self._scratch_args = tuple(a.ctypes.data for a in scratch)
            # The store arena last scanned, and its pointers.
            self._scanned: Any = None
            self._arena_args: Tuple[int, ...] = ()

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
                caller commits the returned delta (as entries with hub
                ``rank[root]``) when its execution model says so.
            stats: optional counter object filled in place.

        Returns:
            List of ``(vertex, distance)`` pairs: for each kept vertex
            ``u``, the exact distance ``d(root, u)``.  The root itself is
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
            # A new arena (a compaction or a thaw): the engine keeps it
            # alive while it holds the pointers.
            self._scanned = arena
            off, size, ah, ad, _cap = arena
            self._arena_args = (
                off.ctypes.data, size.ctypes.data, ah.ctypes.data,
                ad.ctypes.data, len(ah),
            )
        k = self._kernel(
            n, *self._arena_args, *self._csr_args, root,
            self._rank_list[root], *self._scratch_args,
        )
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
        verts = self._out_v[:k].copy()
        dists = self._out_d[:k].copy()
        delta = list(zip(verts.tolist(), dists.tolist()))
        self._last = (delta[:], verts, dists)
        _report(root, len(delta), stats, *counts)
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

        _report(
            root, len(delta), stats,
            n_settled, n_pruned, n_relax, n_push, n_pop, n_scan,
        )
        return delta

    # ------------------------------------------------------------------
    def commit(self, root: int, delta: Delta, store: LabelStore) -> None:
        """Append *delta* (from :meth:`run` on *root*) into *store*."""
        if not delta:
            return
        last = self._last
        if last is not None and delta == last[0]:
            # The kernel's own arrays for this delta: no per-entry
            # conversion.  The comparison is against a copy, so a delta
            # changed since run() returned it is read afresh.
            verts, dists = last[1], last[2]
        else:
            verts, dists = zip(*delta)
        store.add_root(self._rank_list[root], verts, dists)

    def rank_of(self, v: int) -> int:
        """Rank (indexing position) of vertex *v* under the bound ordering."""
        if not 0 <= v < len(self.rank):
            raise OrderingError(f"vertex {v} out of range")
        return int(self.rank[v])


def _report(
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
    """Record one search's counters, and copy them into *stats*."""
    record_search(settled, pruned, labels, pops, scanned)
    if stats is not None:
        stats.root = root
        stats.settled = settled
        stats.pruned = pruned
        stats.labels_added = labels
        stats.relaxations = relaxations
        stats.heap_pushes = pushes
        stats.heap_pops = pops
        stats.query_entries_scanned = scanned
