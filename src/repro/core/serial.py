"""The serial PLL indexer (the paper's §4.1 baseline).

Runs one pruned search (weighted Dijkstra by default, or unweighted
BFS) from every vertex in ordering sequence, committing each root's
delta before the next root starts — the optimal-pruning reference that
all parallel variants are compared against (their "PLL" and "1 thread"
columns in Tables 3 and 4).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

from repro.core.labels import LabelStore
from repro.core.engines import make_engine
from repro.graph.csr import CSRGraph
from repro.graph.order import by_degree
from repro.obs import buildmon as _buildmon
from repro.obs import config as _obs_config
from repro.obs import trace as _trace
from repro.obs.timers import PhaseTimer
from repro.types import IndexStats, SearchStats

__all__ = ["build_serial"]


def build_serial(
    graph: CSRGraph,
    order: Optional[Sequence[int]] = None,
    engine: str = "dijkstra",
    collect_per_root: bool = False,
) -> Tuple[LabelStore, IndexStats]:
    """Build a complete 2-hop-cover label set serially.

    Args:
        graph: the graph to index.
        order: vertex ordering (defaults to descending degree, the
            paper's choice).
        engine: pruned-search engine name (see
            :mod:`repro.core.engines`): ``"dijkstra"`` (weighted, the
            paper's Algorithm 1) or ``"bfs"`` (unweighted hop counts).
        collect_per_root: also keep one :class:`SearchStats` per root
            in indexing order, as needed by the Figure-6 CDF and the
            simulator's cost calibration.  The search counts its
            operations either way; this only decides whether a stats
            object is filled in and kept for each root.

    Returns:
        ``(store, stats)`` — the label store (already finalized) and the
        build statistics.
    """
    timer = PhaseTimer()
    with timer.phase("order"):
        if order is None:
            order = by_degree(graph)
        search = make_engine(engine, graph, order)
    store = LabelStore(graph.num_vertices)

    per_root: list[SearchStats] = []
    # An installed build monitor needs per-root counters even when the
    # caller did not ask to keep them.
    monitor = _buildmon.active()
    collect = collect_per_root or monitor is not None
    t0 = time.perf_counter()
    with timer.phase("search"), _trace.span(
        "build_serial", n=graph.num_vertices
    ):
        # With tracing off the loop opens no span: per-root Python
        # outside run and commit is most of what a serial build spends
        # beyond the search and the append.
        traced = _obs_config.TRACING
        try:
            for root in search.order.tolist():
                root_stats = SearchStats() if collect else None
                if traced:
                    with _trace.span("root_search", root=root, worker=0) as sp:
                        delta = search.run(root, store, root_stats)
                        search.commit(root, delta, store)
                        sp.set(labels=len(delta))
                else:
                    delta = search.run(root, store, root_stats)
                    search.commit(root, delta, store)
                if collect_per_root:
                    per_root.append(root_stats)
                if monitor is not None:
                    monitor.root_done(0, root, stats=root_stats)
        finally:
            search.flush_metrics()
    elapsed = time.perf_counter() - t0

    with timer.phase("finalize"):
        store.finalize()
    stats = IndexStats.from_sizes(store.label_sizes(), elapsed)
    stats.per_root = per_root
    return store, stats
