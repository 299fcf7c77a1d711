"""The paper's core contribution: pruned landmark labeling, serial and parallel.

Layering:

* :mod:`repro.core.labels` — the label store (2-hop-cover index data).
* :mod:`repro.core.query` — QUERY(s, t, L) implementations.
* :mod:`repro.core.pruned_dijkstra` — Algorithm 1 (weighted pruned search).
* :mod:`repro.core.serial` — the serial PLL indexer (one loop for either
  engine of :mod:`repro.core.engines`).
* :mod:`repro.core.index` — :class:`~repro.core.index.PLLIndex`, the
  user-facing facade (build / query / save / load / stats).
* :mod:`repro.core.stats` — label-size statistics and the Figure-6 CDF.
"""

from repro.core.dynamic import DynamicPLL
from repro.core.engines import ENGINES, make_engine
from repro.core.index import PLLIndex
from repro.core.knn import KNNIndex
from repro.core.labels import LabelStore
from repro.core.paths import reconstruct_shortest_path
from repro.core.pruned_bfs import PrunedBFS
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.core.query import query_distance, query_via_tmp
from repro.core.serial import build_serial
from repro.core.stats import label_cdf, label_size_summary

__all__ = [
    "PLLIndex",
    "DynamicPLL",
    "KNNIndex",
    "LabelStore",
    "PrunedDijkstra",
    "PrunedBFS",
    "ENGINES",
    "make_engine",
    "query_distance",
    "query_via_tmp",
    "build_serial",
    "reconstruct_shortest_path",
    "label_cdf",
    "label_size_summary",
]
