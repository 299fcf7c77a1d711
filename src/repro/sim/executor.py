"""The discrete-event executor for intra-node ParaPLL.

:class:`IntraNodeSimulator` schedules real pruned-Dijkstra searches on
*p* virtual workers.  The searches are genuinely executed (same code as
the serial builder) against exactly the labels each one would have seen
under the simulated schedule; their measured operation counts are then
charged through the :class:`~repro.sim.costmodel.CostModel` to advance
virtual time.

Label visibility model (``visibility`` parameter):

* ``"completion"`` (default): a root's labels become visible to other
  searches when its commit finishes — the conservative reading of the
  paper's Proposition-1 proof ("the indexing of v_{k+1} may not be
  finished"), and the source of the redundant labels the paper reports.
* ``"immediate"``: labels are visible the moment the producing search
  is dispatched — an optimistic bound where parallel pruning equals
  serial pruning (ablation; see DESIGN.md §5).

Commits are serialised on a simulated global lock (Algorithm 2's
semaphore), which is what saturates speedup on small graphs exactly as
the paper observes on Wiki-Vote.

The simulator is round-capable: :meth:`IntraNodeSimulator.run_roots`
processes one batch of roots and leaves worker clocks, the lock and the
label store in place, which is how the cluster substrate runs the
chunks between synchronisation points.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.check import hooks as _check_hooks
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.order import by_degree
from repro.obs import buildmon as _buildmon
from repro.obs import config as _obs_config
from repro.obs import trace as _trace
from repro.obs.instruments import CLUSTER_REDUNDANT_LABELS
from repro.parallel.task_manager import make_assignment
from repro.sim.costmodel import CostModel
from repro.types import IndexStats, ParallelRunResult, SearchStats

__all__ = ["IntraNodeSimulator", "simulate_intra_node"]

_VISIBILITIES = ("completion", "immediate")


class IntraNodeSimulator:
    """Virtual p-worker shared-memory node executing pruned searches.

    Args:
        graph: the graph being indexed.
        num_workers: virtual thread count ``p``.
        policy: ``"static"`` or ``"dynamic"`` task assignment (applied
            per :meth:`run_roots` batch).
        order: global vertex ordering (defaults to descending degree).
        cost_model: calibrated cost model; defaults to the uncalibrated
            unit model bound to this graph.
        visibility: ``"completion"`` or ``"immediate"`` (see module doc).
        chunk: dynamic-policy grab size.
        jitter: machine-noise level.  Each task's run time is multiplied
            by a seeded mean-one lognormal factor with this sigma,
            modelling the execution-time variance (cache misses, memory
            contention, OS preemption) of a real multicore machine.
            With ``jitter=0`` per-task costs decline so smoothly with
            rank that completion order equals dispatch order and the
            static policy degenerates into the dynamic one — the noise
            is what the dynamic policy exists to absorb (paper §5.4.2).
        worker_jitter: persistent per-worker slowdown spread.  Worker 0
            always runs at speed 1; each further worker's speed is a
            seeded half-normal slowdown ``exp(-|N(0, sigma)|)`` (never
            faster than 1, so speedups stay sub-linear), modelling
            core/socket heterogeneity and co-scheduling on a real dual-
            socket machine.  Unlike per-task noise — which averages out
            over the n/p tasks each worker runs — a persistently slow
            worker creates the systematic imbalance that only dynamic
            assignment can absorb, which is exactly the static-vs-
            dynamic gap of the paper's §5.4.2.
        seed: RNG seed for the jitter streams.
    """

    def __init__(
        self,
        graph: CSRGraph,
        num_workers: int,
        policy: str = "dynamic",
        order: Optional[Sequence[int]] = None,
        cost_model: Optional[CostModel] = None,
        visibility: str = "completion",
        chunk: int = 1,
        jitter: float = 0.0,
        worker_jitter: float = 0.0,
        seed: int = 0,
        engine: str = "dijkstra",
    ) -> None:
        if num_workers < 1:
            raise SimulationError("num_workers must be >= 1")
        if visibility not in _VISIBILITIES:
            raise SimulationError(
                f"visibility must be one of {_VISIBILITIES}, got {visibility!r}"
            )
        if jitter < 0 or worker_jitter < 0:
            raise SimulationError("jitter levels must be non-negative")
        if order is None:
            order = by_degree(graph)
        from repro.core.engines import make_engine

        self.graph = graph
        self.num_workers = num_workers
        self.policy = policy
        self.order = order
        self.engine = make_engine(engine, graph, order)
        self.store = LabelStore(graph.num_vertices)
        self.cost_model = (cost_model or CostModel()).for_graph(
            graph.num_vertices
        )
        self.visibility = visibility
        self.chunk = chunk
        self.jitter = jitter
        self.worker_jitter = worker_jitter
        self._rng = np.random.default_rng(seed)
        # Worker 0 is the deterministic reference (speed 1), so the
        # 1-worker baseline is jitter-free and speedups stay comparable.
        self.worker_speed: List[float] = [1.0] * num_workers
        if worker_jitter > 0:
            for k in range(1, num_workers):
                self.worker_speed[k] = math.exp(
                    -abs(self._rng.normal(0.0, worker_jitter))
                )

        #: Offset added to worker ids in build-monitor reports, so the
        #: cluster simulator can give each node's virtual workers a
        #: distinct id range (node k -> k * p .. k * p + p - 1).
        self.buildmon_worker_base = 0
        self.worker_clock: List[float] = [0.0] * num_workers
        self.worker_busy: List[float] = [0.0] * num_workers
        self.lock_free_at: float = 0.0
        self.per_root: List[SearchStats] = []
        #: Label triples committed since the last :meth:`drain_deltas`
        #: (consumed by the cluster synchroniser).
        self._pending_deltas: List[Tuple[int, int, float]] = []
        # Sanitizer location for store commits: the simulator is
        # single-threaded, so tracked accesses stay in the exclusive
        # state — the instrumentation exists so sim-driven runs share
        # the same access surface as the real builders.
        self._san_store = f"SimNode#{id(self)}.store"

    # ------------------------------------------------------------------
    # Event kinds, ordered so that at equal timestamps commits become
    # visible before a new dispatch reads the store, and lock grants
    # precede both.
    _EV_LOCKREQ = 0
    _EV_COMMIT = 1
    _EV_FREE = 2

    def run_roots(self, roots: Sequence[int]) -> None:
        """Execute one batch of roots to completion on the virtual node.

        Worker clocks, the commit lock and the label store carry over
        from previous batches; the task-assignment policy is applied
        within the batch.

        The event loop has three event kinds per task lifecycle:
        ``FREE`` (worker requests a task; the search runs *now*, against
        the labels currently visible), ``LOCKREQ`` (the search is done
        and queues FIFO for the commit lock), and ``COMMIT`` (the delta
        becomes visible and the worker is released).
        """
        if len(roots) == 0:
            return
        assignment = make_assignment(
            self.policy, roots, self.num_workers, chunk=self.chunk
        )
        cost = self.cost_model
        engine = self.engine
        store = self.store
        rank = engine.rank

        # Event heap entries: (time, kind, seq, payload).
        events: List[Tuple[float, int, int, tuple]] = []
        seq = 0
        for k in range(self.num_workers):
            events.append((self.worker_clock[k], self._EV_FREE, seq, (k,)))
            seq += 1
        heapq.heapify(events)

        while events:
            t, kind, _, payload = heapq.heappop(events)
            if kind == self._EV_FREE:
                (w,) = payload
                root = assignment.next_task(w)
                if root is None:
                    self.worker_clock[w] = t
                    continue
                stats = SearchStats()
                delta = engine.run(root, store, stats)
                self.per_root.append(stats)
                # Simulated builds report to an installed build monitor
                # too (the monitor's own clocks are wall-clock, so the
                # rates describe simulation throughput, not makespan).
                _buildmon.report_root(
                    self.buildmon_worker_base + w, root, stats=stats
                )
                root_rank = int(rank[root])
                triples = [(v, root_rank, d) for v, d in delta]
                if self.visibility == "immediate":
                    _check_hooks.access(self._san_store, write=True)
                    store.add_delta(triples)
                run_units = cost.task_overhead + cost.search_units(stats)
                if self.jitter > 0:
                    # Mean-one lognormal: exp(N(0, s) - s^2 / 2).
                    run_units *= math.exp(
                        self._rng.normal(0.0, self.jitter)
                        - self.jitter * self.jitter / 2.0
                    )
                run_units /= self.worker_speed[w]
                finish_run = t + cost.seconds(run_units)
                seq += 1
                heapq.heappush(
                    events,
                    (
                        finish_run,
                        self._EV_LOCKREQ,
                        seq,
                        (w, root, triples, t),
                    ),
                )
            elif kind == self._EV_LOCKREQ:
                w, root, triples, start = payload
                commit_start = max(t, self.lock_free_at)
                lock_wait = commit_start - t
                commit_end = commit_start + cost.seconds(
                    cost.commit_units(len(triples))
                )
                self.lock_free_at = commit_end
                seq += 1
                heapq.heappush(
                    events,
                    (
                        commit_end,
                        self._EV_COMMIT,
                        seq,
                        (w, root, triples, start, lock_wait),
                    ),
                )
            else:  # _EV_COMMIT
                w, root, triples, start, lock_wait = payload
                if self.visibility != "immediate":
                    _check_hooks.access(self._san_store, write=True)
                    store.add_delta(triples)
                self._pending_deltas.extend(triples)
                self.worker_busy[w] += t - start
                if _obs_config.TRACING:
                    # Same schema as the real builders' "root_search"
                    # records, but stamped with *simulated* seconds
                    # (clock="sim"; see DESIGN.md §7).
                    _trace.event(
                        "root_search",
                        ts=t,
                        worker=w,
                        root=root,
                        labels=len(triples),
                        start=start,
                        finish=t,
                        lock_wait=lock_wait,
                        clock="sim",
                    )
                seq += 1
                heapq.heappush(events, (t, self._EV_FREE, seq, (w,)))
        engine.flush_metrics()

    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """Current node time: when the last worker became idle."""
        return max(self.worker_clock) if self.worker_clock else 0.0

    def advance_all(self, time: float) -> None:
        """Set every worker clock (and the lock) to *time* (barrier exit).

        Raises:
            SimulationError: if *time* would move any clock backwards.
        """
        if time < self.clock - 1e-12:
            raise SimulationError(
                f"cannot advance node to {time} before its clock {self.clock}"
            )
        self.worker_clock = [time] * self.num_workers
        self.lock_free_at = max(self.lock_free_at, time)

    def drain_deltas(self) -> List[Tuple[int, int, float]]:
        """Label triples committed since the last drain (for cluster sync)."""
        out = self._pending_deltas
        self._pending_deltas = []
        return out

    def receive_labels(self, triples: Sequence[Tuple[int, int, float]]) -> int:
        """Merge remote label triples into this node's local store.

        Exact duplicates of entries already present are skipped and
        counted — they are the redundant labels a serial build would
        never have produced (Table 5's label growth).

        Returns:
            The number of skipped (redundant) entries.
        """
        _check_hooks.access(self._san_store, write=True)
        skipped = len(triples) - self.store.merge_from(triples)
        if skipped and _obs_config.METRICS:
            CLUSTER_REDUNDANT_LABELS.inc(skipped)
        return skipped


def simulate_intra_node(
    graph: CSRGraph,
    num_workers: int,
    policy: str = "dynamic",
    order: Optional[Sequence[int]] = None,
    cost_model: Optional[CostModel] = None,
    visibility: str = "completion",
    chunk: int = 1,
    jitter: float = 0.0,
    worker_jitter: float = 0.0,
    seed: int = 0,
    engine: str = "dijkstra",
) -> Tuple[PLLIndex, ParallelRunResult]:
    """Simulate one full intra-node ParaPLL build (a Table-3/4 cell).

    Returns:
        ``(index, run_result)`` — the finalized index produced under the
        simulated schedule, and the timing/makespan metrics; the index
        stats carry ``per_root``.
    """
    sim = IntraNodeSimulator(
        graph,
        num_workers,
        policy=policy,
        order=order,
        cost_model=cost_model,
        visibility=visibility,
        chunk=chunk,
        jitter=jitter,
        worker_jitter=worker_jitter,
        seed=seed,
        engine=engine,
    )
    sim.run_roots(list(sim.engine.order))
    store = sim.store
    store.finalize()
    makespan = sim.clock
    stats = IndexStats.from_sizes(store.label_sizes(), makespan)
    stats.per_root = sim.per_root
    index = PLLIndex(store, sim.engine.order, graph=graph, stats=stats)
    result = ParallelRunResult(
        index_stats=stats,
        makespan=makespan,
        computation_time=sum(sim.worker_busy),
        communication_time=0.0,
        per_worker_busy=list(sim.worker_busy),
    )
    return index, result
