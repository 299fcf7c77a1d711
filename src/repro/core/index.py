"""The user-facing distance index: build once, query in microseconds.

:class:`PLLIndex` bundles a finalized :class:`~repro.core.labels.LabelStore`
with the vertex ordering it was built under, and exposes distance
queries, meeting-hub queries, persistence and statistics.  Builders
(serial, threaded, simulated, cluster) all end by wrapping their store
in a ``PLLIndex``.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np

from repro.core.labels import LabelStore
from repro.core.query import (
    query_distance,
    query_distance_batch,
    query_result,
)
from repro.core.serial import build_serial
from repro.errors import GraphError, IndexError_
from repro.graph.csr import CSRGraph
from repro.graph.order import ordering_rank, validate_ordering
from repro.types import IndexStats, QueryResult

__all__ = ["PLLIndex"]


class PLLIndex:
    """A finalized 2-hop-cover distance index.

    Construct via :meth:`build` (serial PLL) or wrap a store produced by
    one of the parallel builders with the constructor directly.

    Args:
        store: finalized label store (hubs keyed by rank).
        order: the vertex ordering used during the build.
        graph: the indexed graph, kept for validation helpers; optional
            (a loaded index can answer queries without the graph).
        stats: build statistics, when available.
    """

    def __init__(
        self,
        store: LabelStore,
        order: Sequence[int],
        graph: Optional[CSRGraph] = None,
        stats: Optional[IndexStats] = None,
    ) -> None:
        self.store = store
        self.order = np.asarray(order, dtype=np.int64)
        if graph is not None:
            validate_ordering(graph, self.order)
        self.rank = ordering_rank(self.order)
        self.graph = graph
        self.stats = stats
        store.finalize()

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: CSRGraph,
        order: Optional[Sequence[int]] = None,
        engine: str = "dijkstra",
        collect_per_root: bool = False,
    ) -> "PLLIndex":
        """Build serially: one pruned search per root, in order
        (Algorithm 1 over all roots with the default ``"dijkstra"``
        engine).

        See :func:`repro.core.serial.build_serial` for parameters.
        """
        from repro.graph.order import by_degree

        if order is None:
            order = by_degree(graph)
        store, stats = build_serial(
            graph,
            order=order,
            engine=engine,
            collect_per_root=collect_per_root,
        )
        return cls(store, order, graph=graph, stats=stats)

    @classmethod
    def build_parallel(
        cls,
        graph: CSRGraph,
        num_workers: int,
        backend: str = "threads",
        **kwargs,
    ) -> "PLLIndex":
        """Build with one of the parallel backends.

        Args:
            graph: the graph to index.
            num_workers: worker count ``p``.
            backend: ``"threads"`` (GIL-bound, correctness story) or
                ``"procs"`` (shared-memory processes, real-core
                speedup).
            **kwargs: forwarded to the backend builder (``policy``,
                ``order``, ``chunk``, ``engine``, ...).

        Raises:
            GraphError: for unknown backend names.
        """
        if backend == "threads":
            from repro.parallel.threads import build_parallel_threads

            return build_parallel_threads(graph, num_workers, **kwargs)
        if backend == "procs":
            from repro.parallel.procs import build_parallel_procs

            return build_parallel_procs(graph, num_workers, **kwargs)
        raise GraphError(
            f"unknown parallel backend {backend!r} "
            "(expected 'threads' or 'procs')"
        )

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of indexed vertices."""
        return self.store.n

    def distance(self, s: int, t: int) -> float:
        """Shortest-path distance between *s* and *t* (``inf`` if none).

        Raises:
            GraphError: for *s* or *t* outside ``[0, n)``.
        """
        return query_distance(self.store, s, t)

    def query(self, s: int, t: int) -> QueryResult:
        """Distance plus the meeting hub (as a vertex id) and scan cost."""
        res = query_result(self.store, s, t)
        if res.hub is None:
            return res
        return QueryResult(
            distance=res.distance,
            hub=int(self.order[res.hub]),
            entries_scanned=res.entries_scanned,
        )

    def explain(self, s: int, t: int):
        """EXPLAIN the query: every candidate hub, classified, plus cost.

        Runs on a separate diagnostic code path (the hot
        :func:`~repro.core.query.query_distance` loop is untouched);
        the explanation's ``distance`` equals :meth:`distance` exactly.

        Returns:
            A :class:`~repro.obs.explain.QueryExplanation` with hub
            ranks mapped back to vertex ids via this index's ordering.
        """
        self._check_vertex(s)
        self._check_vertex(t)
        from repro.obs.explain import explain_query

        return explain_query(self.store, s, t, order=self.order)

    def distance_batch(self, pairs) -> np.ndarray:
        """Distances for an ``(m, 2)`` array of ``(s, t)`` pairs.

        One compiled call loops the merge join over every pair
        (:func:`~repro.core.query.query_distance_batch`); bit-identical
        to calling :meth:`distance` per pair.

        Returns:
            float64 array of length *m*; ``inf`` for unreachable pairs.
        """
        return query_distance_batch(self.store, pairs)

    def distances_from(self, s: int, targets: Sequence[int]) -> list[float]:
        """Batch distances from *s* to each vertex in *targets*."""
        self._check_vertex(s)
        targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        pairs = np.empty((len(targets), 2), dtype=np.int64)
        pairs[:, 0] = s
        pairs[:, 1] = targets
        return [float(d) for d in self.distance_batch(pairs)]

    def shortest_path(self, s: int, t: int) -> Optional[list[int]]:
        """One shortest path ``[s, ..., t]`` (``None`` if unreachable).

        Recovered by greedy next-hop walking over the attached graph;
        requires the index to have been built or loaded with its graph.

        Raises:
            GraphError: if no graph is attached.
        """
        if self.graph is None:
            raise GraphError(
                "shortest_path needs the graph; build with it or pass "
                "graph= to PLLIndex.load"
            )
        from repro.core.paths import reconstruct_shortest_path

        return reconstruct_shortest_path(self, self.graph, s, t)

    def avg_label_size(self) -> float:
        """The paper's "LN" metric for this index."""
        return self.store.avg_label_size

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.store.n:
            raise GraphError(f"vertex {v} out of range [0, {self.store.n})")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike, format: str = "npz") -> None:
        """Serialise the index (labels + ordering).

        Args:
            path: target ``.npz`` file (``format="npz"``) or directory
                (``format="dir"``).
            format: ``"npz"`` writes one compressed archive;
                ``"dir"`` writes a directory bundle of raw ``.npy``
                members, which :meth:`load` can memory-map.
        """
        arrays = self.store.to_arrays()
        members = {
            "order": self.order,
            "label_indptr": arrays["indptr"],
            "label_hubs": arrays["hubs"],
            "label_dists": arrays["dists"],
        }
        if format == "npz":
            np.savez_compressed(path, **members)
        elif format == "dir":
            path = os.fspath(path)
            os.makedirs(path, exist_ok=True)
            for name, arr in members.items():
                np.save(os.path.join(path, name + ".npy"), arr)
        else:
            raise GraphError(
                f"unknown index format {format!r} (expected 'npz' or 'dir')"
            )

    @classmethod
    def load(
        cls,
        path: str | os.PathLike,
        graph: Optional[CSRGraph] = None,
        mmap: bool = False,
    ) -> "PLLIndex":
        """Load an index saved with :meth:`save`.

        The label arrays are adopted directly — no Python-list
        round-trip and no re-finalization — after structural validation
        (monotone indptr, sorted in-range hub runs, ``order`` a
        permutation).

        Args:
            path: the ``.npz`` file or directory bundle.
            graph: optionally re-attach the graph for validation helpers.
            mmap: memory-map the label arrays instead of reading them
                into RAM.  Only directory bundles (``save(...,
                format="dir")``) support this; ``.npz`` archives are
                decompressed on read, so numpy cannot map them.

        Raises:
            GraphError: for unreadable or structurally corrupt files.
        """
        path = os.fspath(path)
        members = ("order", "label_indptr", "label_hubs", "label_dists")
        try:
            if os.path.isdir(path):
                mode = "r" if mmap else None
                arrays = {
                    name: np.load(
                        os.path.join(path, name + ".npy"), mmap_mode=mode
                    )
                    for name in members
                }
            else:
                if mmap:
                    raise GraphError(
                        ".npz archives cannot be memory-mapped; save "
                        "with format='dir' to load with mmap=True"
                    )
                with np.load(path) as data:
                    arrays = {name: data[name] for name in members}
        except GraphError:
            raise
        except Exception as exc:
            raise GraphError(
                f"cannot load index from {path!r}: {exc}"
            ) from exc
        store = LabelStore.from_arrays(
            arrays["label_indptr"],
            arrays["label_hubs"],
            arrays["label_dists"],
        )
        order = np.asarray(arrays["order"], dtype=np.int64).reshape(-1)
        n = store.n
        if len(order) != n or not np.array_equal(
            np.sort(order), np.arange(n, dtype=np.int64)
        ):
            raise GraphError(
                f"index order must be a permutation of 0..{n - 1}, "
                f"got {len(order)} entries"
            )
        return cls(store, order, graph=graph)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def verify_against_dijkstra(
        self, sources: Sequence[int], atol: float = 1e-9
    ) -> None:
        """Check every distance from the given sources against Dijkstra.

        Raises:
            GraphError: if the index has no attached graph.
            IndexError_: on the first mismatching pair.
        """
        if self.graph is None:
            raise GraphError("index has no attached graph to verify against")
        from repro.baselines.dijkstra import dijkstra_sssp
        from repro.core.paths import isclose_distance

        for s in sources:
            truth = dijkstra_sssp(self.graph, int(s))
            for t in range(self.graph.num_vertices):
                got = self.distance(int(s), t)
                want = truth[t]
                if not isclose_distance(got, want, atol=atol):
                    raise IndexError_(
                        f"distance({s}, {t}) = {got}, Dijkstra says {want}",
                        source=int(s), target=t,
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PLLIndex(n={self.store.n}, entries={self.store.total_entries}, "
            f"LN={self.store.avg_label_size:.1f})"
        )
