"""Engine registry: pruned search implementations by name.

Every builder (serial, threaded, simulated, cluster) runs some *engine*
with the ``run(root, store, stats) -> delta`` / ``commit`` / ``rank_of``
/ ``flush_metrics`` interface, calling ``flush_metrics`` once at the end
of its loop to add the searches' counters to the metrics.  Two engines
exist:

* ``"dijkstra"`` — the paper's weighted pruned Dijkstra (Algorithm 1).
* ``"bfs"`` — the original unweighted pruned BFS (ignores weights,
  distances are hop counts); with it, the parallel builders realise the
  unit-weight parallel PLL of the paper's reference [11].
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Union

from repro.core.pruned_bfs import PrunedBFS
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.errors import ReproError
from repro.graph.csr import CSRGraph

__all__ = ["ENGINES", "make_engine", "EngineLike"]

#: Any object implementing the pruned-search engine interface.
EngineLike = Union[PrunedDijkstra, PrunedBFS]

ENGINES: Dict[str, Callable[..., EngineLike]] = {
    "dijkstra": PrunedDijkstra,
    "bfs": PrunedBFS,
}


def make_engine(name: str, graph: CSRGraph, order: Sequence[int]) -> EngineLike:
    """Instantiate a pruned-search engine by name.

    Args:
        name: ``"dijkstra"`` or ``"bfs"``.
        graph: the graph to index.
        order: the vertex ordering.

    Raises:
        ReproError: for unknown engine names.
    """
    try:
        cls = ENGINES[name]
    except KeyError:
        raise ReproError(
            f"unknown engine {name!r}; choose from {sorted(ENGINES)}"
        ) from None
    return cls(graph, order)
