"""Thread-based intra-node ParaPLL (the paper's shared-memory model).

Each worker thread owns its own :class:`~repro.core.pruned_dijkstra.
PrunedDijkstra` engine (private scratch arrays) and pulls roots from a
shared :class:`~repro.parallel.task_manager.TaskAssignment`.  Labels
live in one shared :class:`~repro.core.labels.LabelStore`: reads
(pruning) are lock-free; commits happen under a single lock, exactly
Algorithm 2's semaphore.  The store's publish order (entries, then
the run's ``off``, then its ``size``) makes the lock-free reads safe:
a reader sees only whole, published entries.

Because of the GIL, this implementation demonstrates ParaPLL's
*correctness under concurrency* (Proposition 1) rather than wall-clock
speedup; speedup numbers come from :mod:`repro.sim`, which executes the
same policies deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.check import hooks as _check_hooks
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.errors import TaskError
from repro.graph.csr import CSRGraph
from repro.graph.order import by_degree
from repro.obs import buildmon as _buildmon
from repro.obs import config as _obs_config
from repro.obs import flightrec as _flightrec
from repro.obs import instruments as _inst
from repro.obs import trace as _trace
from repro.parallel.task_manager import make_assignment
from repro.types import IndexStats

__all__ = ["build_parallel_threads", "WorkerFailure"]


@dataclass
class WorkerFailure:
    """One worker thread's failure: which worker, on which root, why.

    The builder re-raises the first failure's original exception with a
    :class:`~repro.errors.TaskError` naming worker and root attached as
    its ``__cause__``, so callers keep their ``except <OriginalError>``
    handling while tracebacks show exactly where the build died.
    """

    worker: int
    root: Optional[int]
    exc: BaseException


def build_parallel_threads(
    graph: CSRGraph,
    num_threads: int,
    policy: str = "dynamic",
    order: Optional[Sequence[int]] = None,
    chunk: int = 1,
    engine: str = "dijkstra",
) -> PLLIndex:
    """Build a PLL index with *num_threads* concurrent worker threads.

    Args:
        graph: the graph to index.
        num_threads: worker count ``p`` (>= 1).
        policy: ``"static"`` or ``"dynamic"`` task assignment.
        order: vertex ordering (defaults to descending degree).
        chunk: dynamic-policy grab size (ignored for static).
        engine: ``"dijkstra"`` (weighted, the paper's Algorithm 1) or
            ``"bfs"`` (unweighted hop counts).

    Returns:
        A finalized :class:`~repro.core.index.PLLIndex`.  Queries are
        exact (Proposition 1) even though the label set may contain
        redundant entries relative to a serial build.

    Raises:
        TaskError: for invalid thread counts or policies.
    """
    if num_threads < 1:
        raise TaskError("num_threads must be >= 1")
    if order is None:
        order = by_degree(graph)
    assignment = make_assignment(policy, order, num_threads, chunk=chunk)
    # Under the race sanitizer (repro.check), the store is wrapped for
    # commit tracking and the lock carries happens-before edges; both
    # calls are identity/plain-Lock when the sanitizer is off.
    store = _check_hooks.wrap_store(LabelStore(graph.num_vertices))
    commit_lock = _check_hooks.make_lock("parapll.commit_lock")
    errors: List[WorkerFailure] = []
    # Fail-fast cancellation: the first failing worker sets this flag
    # and every surviving worker stops at its next task grab instead of
    # indexing the entire remaining root set before the error surfaces.
    stop = threading.Event()

    def worker(worker_id: int) -> None:
        from repro.core.engines import make_engine
        from repro.types import SearchStats

        search = make_engine(engine, graph, order)
        monitor = _buildmon.active()
        # Per-worker metric series, resolved once outside the loop.
        roots_done = _inst.WORKER_ROOTS.labels(worker=str(worker_id))
        queue_wait = _inst.WORKER_QUEUE_WAIT.labels(worker=str(worker_id))
        perf = time.perf_counter
        root: Optional[int] = None
        try:
            while not stop.is_set():
                root = None
                t_ask = perf()
                root = assignment.next_task(worker_id)
                wait = perf() - t_ask
                if root is None:
                    return
                _flightrec.record(
                    "task_grab", worker=worker_id, root=root
                )
                with _trace.span(
                    "root_search", worker=worker_id, root=root
                ) as sp:
                    root_stats = (
                        SearchStats() if monitor is not None else None
                    )
                    delta = search.run(root, store, root_stats)
                    t_req = perf()
                    with commit_lock:
                        t_acq = perf()
                        search.commit(root, delta, store)
                    t_rel = perf()
                    sp.set(
                        labels=len(delta),
                        lock_wait=t_acq - t_req,
                        commit=t_rel - t_acq,
                    )
                _flightrec.record(
                    "label_commit",
                    worker=worker_id,
                    root=root,
                    labels=len(delta),
                )
                if monitor is not None:
                    monitor.root_done(
                        worker_id, root, stats=root_stats, labels=len(delta)
                    )
                if _obs_config.METRICS:
                    roots_done.inc()
                    queue_wait.inc(wait)
                    _inst.COMMITS.inc()
                    _inst.COMMIT_LOCK_WAIT.inc(t_acq - t_req)
                    _inst.COMMIT_LOCK_HOLD.inc(t_rel - t_acq)
        except BaseException as exc:  # surfaced to the caller below
            stop.set()
            _flightrec.record(
                "worker_failure",
                worker=worker_id,
                root=root,
                error=repr(exc),
            )
            errors.append(WorkerFailure(worker=worker_id, root=root, exc=exc))
        finally:
            search.flush_metrics()

    t0 = time.perf_counter()
    with _trace.span(
        "build_parallel_threads",
        threads=num_threads,
        policy=policy,
        n=graph.num_vertices,
    ):
        threads = [
            threading.Thread(target=worker, args=(k,), name=f"parapll-{k}")
            for k in range(num_threads)
        ]
        for t in threads:
            # Fork/join edges let the happens-before sanitizer prove
            # the commit-on-completion pattern race-free.
            _check_hooks.fork(t.name)
            t.start()
        for t in threads:
            t.join()
            _check_hooks.join(t.name)
    elapsed = time.perf_counter() - t0
    if errors:
        failure = errors[0]
        where = (
            f"while indexing root {failure.root}"
            if failure.root is not None
            else "while pulling the next task"
        )
        _flightrec.auto_dump("worker_failure")
        raise failure.exc from TaskError(
            f"worker {failure.worker} failed {where} "
            f"({len(errors)} worker(s) failed in total)",
            worker=failure.worker,
            root=failure.root,
            failures=len(errors),
        )

    # The concurrent phase is over: drop the sanitizer wrapper (if any)
    # before the single-threaded finalize, which needs no lock.
    store = _check_hooks.unwrap_store(store)
    store.finalize()
    stats = IndexStats.from_sizes(store.label_sizes(), elapsed)
    return PLLIndex(store, order, graph=graph, stats=stats)
