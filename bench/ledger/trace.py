"""Per-layer timing from outside the program: wrappers installed around
public calls, patched on the object where the program looks each name
up at call time.

A :class:`LayerClock` keeps, per process and per thread, the *self*
seconds of every wrapped call (its duration minus the part covered by
wrapped calls nested inside it), call counts and plain counters.
Forked children inherit the wrappers; the first wrapped call in a new
process starts that process's totals from zero.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Totals = Dict[str, Dict[str, float]]

_ABSENT = object()


class _ThreadTotals:
    __slots__ = ("seconds", "calls", "counts", "stack")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.stack: List[float] = []


class LayerClock:
    """Self-time totals of wrapped calls, safe across threads and fork.

    *clock* defaults to wall time.  Where several threads run wrapped
    calls at once, as the server's per-connection handlers do, their
    wall times overlap while they wait for the interpreter lock, so such
    a process passes ``time.thread_time``: each layer then reads the CPU
    time its own thread spent in it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._fresh()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _fresh(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._threads: List[_ThreadTotals] = []
        self._local = threading.local()

    def _mine(self) -> _ThreadTotals:
        if os.getpid() != self.pid:
            self._fresh()
        mine = getattr(self._local, "totals", None)
        if mine is None:
            mine = _ThreadTotals()
            with self._lock:
                self._threads.append(mine)
            self._local.totals = mine
        return mine

    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped to add its self time to layer *name*."""
        clock_ = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mine = self._mine()
            stack = mine.stack
            stack.append(0.0)
            t0 = clock_()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock_() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                mine.seconds[name] += dt - inner
                mine.calls[name] += 1

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self._mine().counts[name] += amount

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        adapt: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper (of ``adapt(fn)``
        when given); static and class methods keep their kind."""
        raw = vars(owner).get(attr, None) or getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if adapt is not None:
            fn = adapt(fn)
        new = self.timed(name, fn)
        self.replace(owner, attr, kind(new) if kind else new)

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every :meth:`replace`, newest first."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # ------------------------------------------------------------------
    def totals(self) -> Totals:
        """This process's totals, summed over its threads."""
        if os.getpid() != self.pid:
            self._fresh()
        out: Totals = {"seconds": {}, "calls": {}, "counts": {}}
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            for key in out:
                for name, value in getattr(t, key).items():
                    out[key][name] = out[key].get(name, 0) + value
        return out

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.totals(), fh)
        os.replace(tmp, path)


def merge(parts: List[Totals]) -> Totals:
    """Sum several processes' totals."""
    out: Totals = {"seconds": {}, "calls": {}, "counts": {}}
    for part in parts:
        for key in out:
            for name, value in part.get(key, {}).items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def self_seconds(totals: Totals) -> float:
    """Sum of every layer's self time."""
    return float(sum(totals["seconds"].values()))


def residual_frac(wall: float, totals: Totals) -> float:
    """``|wall - sum of layer self times| / wall``: how much of the
    traced wall time the wrapped layers fail to explain."""
    return abs(wall - self_seconds(totals)) / wall if wall > 0 else 1.0


# ----------------------------------------------------------------------
# Build side
# ----------------------------------------------------------------------
def _counting_run(clock: LayerClock) -> Callable[[Callable], Callable]:
    """Adapt ``PrunedDijkstra.run`` to count its operations."""
    from repro.types import SearchStats

    def adapt(run: Callable) -> Callable:
        def counted(self, root, store, stats=None):
            st = stats if stats is not None else SearchStats()
            delta = run(self, root, store, st)
            mine = clock._mine().counts
            mine["search.roots"] += 1
            mine["search.settled"] += st.settled
            mine["search.pruned"] += st.pruned
            mine["search.labels"] += len(delta)
            mine["search.heap_pops"] += st.heap_pops
            mine["search.heap_pushes"] += st.heap_pushes
            mine["search.scan_entries"] += st.query_entries_scanned
            return delta

        return counted

    return adapt


def _counting_sync(clock: LayerClock) -> Callable[[Callable], Callable]:
    def adapt(extend: Callable) -> Callable:
        def counted(self, verts, hub_ranks, dists):
            added = extend(self, verts, hub_ranks, dists)
            clock.count("sync.entries", added)
            return added

        return counted

    return adapt


def _flushing_close(
    clock: LayerClock, parent_pid: int, out_dir: str
) -> Callable[[Callable], Callable]:
    """Adapt ``SharedGraph.close`` so a worker process writes its totals
    to ``<out_dir>/worker-<pid>.json`` when it detaches."""

    def adapt(close: Callable) -> Callable:
        def flushing(self, *args, **kwargs):
            result = close(self, *args, **kwargs)
            pid = os.getpid()
            if pid != parent_pid:
                clock.dump(os.path.join(out_dir, f"worker-{pid}.json"))
            return result

        return flushing

    return adapt


def install_build(clock: LayerClock, out_dir: str) -> None:
    """Wrap every layer an index build goes through, serial or procs."""
    import multiprocessing.connection as mp_connection
    import multiprocessing.process as mp_process

    import repro.core.labels as labels
    import repro.core.pruned_dijkstra as pruned_dijkstra
    import repro.graph.order as order
    import repro.io.npz as npz
    import repro.obs.bus as bus
    import repro.obs.flightrec as flightrec
    import repro.obs.metrics as metrics
    import repro.parallel.procs as procs
    import repro.parallel.shm as shm
    import repro.parallel.task_manager as task_manager

    engine = pruned_dijkstra.PrunedDijkstra
    clock.patch(npz, "load_graph_npz", "graph_load")
    # The parent's own code in the procs build loop: what is left of it
    # outside the calls below is dispatch bookkeeping and delta conversion.
    clock.patch(procs, "build_parallel_procs", "parent_loop")
    clock.patch(task_manager.StaticAssignment, "next_task", "dispatch")
    clock.patch(task_manager.DynamicAssignment, "next_task", "dispatch")
    clock.patch(flightrec, "record", "telemetry")
    clock.patch(bus, "publish_event", "telemetry")
    clock.patch(metrics.Counter, "labels", "telemetry")
    clock.patch(metrics.Counter, "inc", "telemetry")
    clock.patch(order, "by_degree", "order")
    clock.patch(procs, "by_degree", "order")
    clock.patch(engine, "__init__", "engine_init")
    clock.patch(engine, "run", "search", _counting_run(clock))
    clock.patch(engine, "commit", "commit")
    clock.patch(labels.LabelStore, "finalize", "finalize")
    clock.patch(labels.LabelStore, "add_delta", "store_commit")
    clock.patch(
        labels.LabelStore, "extend_from_arrays", "sync", _counting_sync(clock)
    )
    clock.patch(shm.SharedGraph, "export", "export")
    clock.patch(
        shm.SharedGraph,
        "close",
        "shm_close",
        _flushing_close(clock, os.getpid(), out_dir),
    )
    clock.patch(shm.GrowableLabelLog, "append", "log_append")
    clock.patch(mp_process.BaseProcess, "start", "spawn")
    clock.patch(mp_process.BaseProcess, "join", "join")
    clock.patch(mp_connection, "wait", "wait")
    clock.patch(mp_connection.Connection, "recv", "recv")
    clock.patch(mp_connection.Connection, "send", "send")


# ----------------------------------------------------------------------
# Serve side
# ----------------------------------------------------------------------
class TimedJson:
    """Stand-in for the ``json`` module inside the server: ``loads`` and
    ``dumps`` are timed, everything else passes through."""

    def __init__(self, clock: LayerClock, real: Any) -> None:
        self._real = real
        self.loads = clock.timed("decode", real.loads)
        self.dumps = clock.timed("encode", real.dumps)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def install_serve(clock: LayerClock) -> None:
    """Wrap the serving layers: JSON decode/encode, dispatch, the oracle,
    the index query on cache misses, and per-request bookkeeping."""
    import repro.core.index as index
    import repro.obs.bus as bus
    import repro.obs.slo as slo
    import repro.service.oracle as oracle
    import repro.service.server as server

    clock.replace(server, "json", TimedJson(clock, json))
    clock.patch(server, "_dispatch", "dispatch")
    clock.patch(server, "record_request", "obs")
    clock.patch(bus, "publish_event", "obs")
    clock.patch(slo.SLOTracker, "record", "obs")
    clock.patch(oracle.DistanceOracle, "distance", "oracle")
    clock.patch(index.PLLIndex, "distance", "index_distance")
