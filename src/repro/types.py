"""Shared type aliases and small value objects used across the library.

The hot paths of the library work on plain Python ints/floats and numpy
arrays; the dataclasses defined here are *reporting* types that carry
results out of an algorithm (never into its inner loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Sentinel distance for "unreachable".  We use ``math.inf`` (not a magic
#: integer) so that arithmetic such as ``d + w`` stays correct.
INF: float = math.inf

#: A vertex identifier.  Vertices are always dense integers ``0..n-1``.
Vertex = int

#: An edge weight.  Weights are non-negative finite floats.
Weight = float

#: One label entry: (hub vertex, distance from the hub).
LabelEntry = Tuple[int, float]


@dataclass(frozen=True)
class QueryResult:
    """Outcome of a single distance query.

    Attributes:
        distance: the shortest-path distance, ``math.inf`` if disconnected.
        hub: the meeting vertex ``u`` that realised the minimum of
            ``d(u, s) + d(u, t)`` in the 2-hop cover, or ``None`` when the
            vertices are disconnected.
        entries_scanned: how many label entries the query touched; a direct
            measure of query cost (the paper's "query stage" cost).
    """

    distance: float
    hub: Optional[int]
    entries_scanned: int

    @property
    def reachable(self) -> bool:
        """Whether a path between the two query vertices exists."""
        return self.distance != INF


@dataclass
class SearchStats:
    """Operation counters collected by one pruned-Dijkstra root search.

    These counters feed the discrete-event cost model: simulated execution
    time is a linear function of them (see :mod:`repro.sim.costmodel`).

    Attributes:
        root: the root vertex of the search.
        settled: vertices dequeued with a final distance (including pruned).
        pruned: dequeued vertices discarded by the 2-hop-cover prune test.
        labels_added: label entries this root contributed.
        relaxations: edge relaxation attempts.
        heap_pushes: priority-queue insert operations.
        heap_pops: priority-queue delete-min operations.
        query_entries_scanned: label entries read by prune-test queries.
    """

    root: int = -1
    settled: int = 0
    pruned: int = 0
    labels_added: int = 0
    relaxations: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    query_entries_scanned: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate counters of *other* into this instance (in place)."""
        self.settled += other.settled
        self.pruned += other.pruned
        self.labels_added += other.labels_added
        self.relaxations += other.relaxations
        self.heap_pushes += other.heap_pushes
        self.heap_pops += other.heap_pops
        self.query_entries_scanned += other.query_entries_scanned

    @property
    def prune_ratio(self) -> float:
        """Fraction of settled vertices discarded by the prune test.

        The live pruning-effectiveness measure: high values mean the
        2-hop-cover test is doing its job (most searches terminate
        without adding labels); 0.0 when nothing was settled yet.
        """
        return self.pruned / self.settled if self.settled else 0.0

    def to_dict(self) -> Dict[str, float]:
        """Counters as a JSON-safe dict (buildmon / audit payloads)."""
        return {
            "root": self.root,
            "settled": self.settled,
            "pruned": self.pruned,
            "labels_added": self.labels_added,
            "relaxations": self.relaxations,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "query_entries_scanned": self.query_entries_scanned,
            "prune_ratio": self.prune_ratio,
        }


@dataclass
class IndexStats:
    """Summary statistics for a completed labeling build.

    Attributes:
        n: number of vertices indexed.
        total_entries: total label entries across all vertices.
        avg_label_size: the paper's "LN" column -- mean entries per vertex.
        max_label_size: largest per-vertex label.
        build_seconds: wall-clock (or simulated) build time.
        per_root: optional per-root search statistics, in indexing order.
    """

    n: int
    total_entries: int
    avg_label_size: float
    max_label_size: int
    build_seconds: float
    per_root: List[SearchStats] = field(default_factory=list)

    @staticmethod
    def from_sizes(sizes: List[int], build_seconds: float) -> "IndexStats":
        """Build stats from a list of per-vertex label sizes."""
        n = len(sizes)
        total = sum(sizes)
        return IndexStats(
            n=n,
            total_entries=total,
            avg_label_size=(total / n) if n else 0.0,
            max_label_size=max(sizes) if sizes else 0,
            build_seconds=build_seconds,
        )


@dataclass
class ParallelRunResult:
    """Result of one (real or simulated) parallel indexing run.

    Attributes:
        index_stats: the label statistics of the produced index.
        makespan: total (simulated or wall) time of the run, seconds.
        computation_time: portion of ``makespan`` spent computing.
        communication_time: portion spent in synchronisation / messaging.
        per_worker_busy: busy seconds for each worker, for load-balance
            analysis (static vs. dynamic assignment).
    """

    index_stats: IndexStats
    makespan: float
    computation_time: float = 0.0
    communication_time: float = 0.0
    per_worker_busy: List[float] = field(default_factory=list)

    @property
    def load_imbalance(self) -> float:
        """Max/mean busy-time ratio across workers (1.0 = perfectly even)."""
        if not self.per_worker_busy:
            return 1.0
        mean = sum(self.per_worker_busy) / len(self.per_worker_busy)
        if mean == 0:
            return 1.0
        return max(self.per_worker_busy) / mean


@dataclass(frozen=True)
class DatasetSpec:
    """Descriptor of one benchmark dataset (a Table-2 row).

    Attributes:
        name: dataset name as in the paper (e.g. ``"Wiki-Vote"``).
        paper_n: vertex count reported in the paper.
        paper_m: edge count reported in the paper.
        graph_type: the paper's "Graph Type" column.
        family: generator family key (``"powerlaw"``, ``"road"``, ...).
    """

    name: str
    paper_n: int
    paper_m: int
    graph_type: str
    family: str


# Mapping from experiment id (e.g. "table3") to a human description.
ExperimentCatalog = Dict[str, str]
