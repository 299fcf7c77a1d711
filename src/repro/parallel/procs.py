"""Process-based ParaPLL: true multi-core builds over shared memory.

:mod:`repro.parallel.threads` proves ParaPLL's concurrent correctness
but is GIL-bound; this module is the paper's actual speedup story.
Each worker is an OS process with its own Python interpreter running
pruned Dijkstra roots on a real core.  What crosses the process
boundary is kept to the minimum the algorithm needs:

* **The graph CSR** lives in one ``multiprocessing.shared_memory``
  segment (:class:`~repro.parallel.shm.SharedGraph`), attached
  zero-copy by every worker — ``p`` processes, one physical graph.
* **Committed labels** live in an append-only shared log
  (:class:`~repro.parallel.shm.LabelLog`).  The parent is the *single
  writer* — Algorithm 2's ``Lock(L)`` critical section collapses into
  one process — and the log is the only copy it keeps: the final index
  is built once from the log's committed prefix.
* **Roots go out in blocks.**  One ``task`` message hands a worker a
  block of roots; the worker syncs its local mirror from the log once,
  runs the block's roots in order — adding each root's labels to its
  own mirror straight away, so later roots of the block prune against
  them — and ships the whole block's labels back in one ``done``
  message.  The parent appends them to the log with one call and only
  then dispatches that worker's next block.

Visibility is *coarser* than the thread backend's: a worker sees peer
labels committed up to the start of its block, plus its own.  By
Proposition 1 that costs only redundant entries, never wrong distances,
and Proposition 2 bounds how many; block sizes are derived so that one
block carries about :data:`BLOCK_LABELS` labels, which keeps the
redundancy small (DESIGN.md §16).  With ``p=1`` the worker's own
mirror is the whole label set, so the build matches the serial one
label for label.

Task assignment reuses :mod:`repro.parallel.task_manager` unchanged:
the policies run in the parent, and the pipes form the process-safe
dispatch channel.  Failures keep the thread backend's shape — the
first failing worker's exception is re-raised ``from`` a
:class:`~repro.errors.TaskError` naming worker and root — and the
parent fail-fasts: on the first failure it tells every busy worker to
stop, and workers check for that between the roots of a block.  A
worker that dies without a goodbye (SIGKILL, OOM) is detected through
its process sentinel and reported the same way instead of hanging the
build.

Telemetry crosses the fork boundary via the relay plane (DESIGN.md
§15): pass
``relay=(host, port)`` of a running
:class:`~repro.obs.relay.Collector` and each worker opens a
:class:`~repro.obs.relay.RelayClient` with its worker id as rank, so
child-side search metrics, spans and flight-recorder events stitch
into the parent's registry.  The parent itself reports the commit
plane (buildmon progress, commit counters, flight-recorder
``label_commit`` events) directly, one event per root.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from repro.parallel.shm import GrowableLabelLog, LabelLog, SharedGraph
from repro.parallel.task_manager import make_assignment
from repro.parallel.threads import WorkerFailure
from repro.types import IndexStats, SearchStats

__all__ = ["build_parallel_procs"]

#: Labels one block should carry.  A worker's next block is sized from
#: the labels per root its last block produced; a larger budget means
#: fewer round trips but staler visibility, and so more redundant
#: entries (against one root per message, the road stand-in's index
#: grew 29% at 512 and 2.5% at 128).
BLOCK_LABELS = 128

#: A block also carries at most ``1/BLOCK_SHARE`` of the labels
#: committed so far, so it never hides a large share of the label set
#: from the other workers: on a 144-vertex graph a flat 128-label
#: budget grew the index by up to 14% over a serial build, with this
#: cap by a median 6%.
BLOCK_SHARE = 64

#: Most roots one block may hold.
MAX_BLOCK_ROOTS = 256

#: Fields shipped for one root's SearchStats (order matters: the parent
#: reconstructs by position).
_STATS_FIELDS = (
    "root",
    "settled",
    "pruned",
    "labels_added",
    "relaxations",
    "heap_pushes",
    "heap_pops",
    "query_entries_scanned",
)


def _pack_stats(stats: Optional[SearchStats]) -> Optional[Tuple[int, ...]]:
    if stats is None:
        return None
    return tuple(int(getattr(stats, f)) for f in _STATS_FIELDS)


def _unpack_stats(packed: Optional[Sequence[int]]) -> Optional[SearchStats]:
    if packed is None:
        return None
    return SearchStats(**dict(zip(_STATS_FIELDS, packed)))


def _next_block_size(roots: int, labels: int, committed: int) -> int:
    """Roots for a worker's next block, given the roots and labels of
    its last block and the labels committed so far."""
    budget = min(BLOCK_LABELS, committed // BLOCK_SHARE)
    return max(1, min(MAX_BLOCK_ROOTS, budget * roots // max(labels, 1)))


def _sync_mirror(
    store: LabelStore,
    log: Optional[LabelLog],
    meta: Dict[str, Any],
    synced: int,
    own_ranks: np.ndarray,
) -> Tuple[LabelLog, int]:
    """Catch the worker's local mirror up with the shared label log.

    Re-attaches when the dispatch message names a newer log generation
    (entry indices are stable across generations, so *synced* carries
    over), then appends every entry in ``[synced, committed)`` except
    those whose hub is in *own_ranks*: the worker's last block, already
    in the mirror.
    """
    if log is None or log.meta["segment"] != meta["segment"]:
        if log is not None:
            log.close()
        log = LabelLog.attach(meta)
    committed = log.committed
    if committed > synced:
        verts, hubs, dists = log.read(synced, committed)
        if len(own_ranks):
            peer = ~np.isin(hubs, own_ranks)
            verts, hubs, dists = verts[peer], hubs[peer], dists[peer]
        # The mirror is this worker process's private copy: no other
        # thread or process writes it, so there is no lock to hold.
        store.extend_from_arrays(verts, hubs, dists)  # lint-ok: PC002, PC007
        synced = committed
    return log, synced


def _worker_main(
    worker_id: int,
    graph_meta: Dict[str, Any],
    order: Sequence[int],
    engine: str,
    conn: Any,
    monitored: bool,
    relay: Optional[Tuple[str, int]],
) -> None:
    """One worker process: attach shared state, loop on dispatched blocks.

    The mirror :class:`LabelStore` is process-local — pruning reads
    need no lock.  It holds the log as of the block start plus this
    worker's own labels, which it adds root by root as it goes; the
    next sync skips those entries when they come back through the log.
    """
    from repro.core.engines import make_engine

    relay_client = None
    shared_graph = None
    log: Optional[LabelLog] = None
    try:
        if relay is not None:
            try:
                from repro.obs.relay import RelayClient

                relay_client = RelayClient(
                    relay[0], relay[1], rank=worker_id
                )
            except OSError as exc:
                # Telemetry is best-effort: a dead collector must not
                # take the build down.
                _flightrec.record(
                    "relay_connect_failed",
                    worker=worker_id,
                    error=repr(exc),
                )
        shared_graph = SharedGraph.attach(graph_meta)
        search = make_engine(engine, shared_graph.graph, order)
        store = LabelStore(shared_graph.graph.num_vertices)
        synced = 0
        own_ranks = np.empty(0, dtype=np.int64)
        root: Optional[int] = None
        while True:
            root = None
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _tag, block, log_meta = msg
            log, synced = _sync_mirror(
                store, log, log_meta, synced, own_ranks
            )
            verts: List[int] = []
            dists: List[float] = []
            ranks: List[int] = []
            per_root: List[Tuple[int, Optional[Tuple[int, ...]]]] = []
            for root in block:
                if conn.poll():
                    return  # only a stop interrupts a block (fail-fast)
                _flightrec.record("task_grab", worker=worker_id, root=root)
                root_stats = SearchStats() if monitored else None
                with _trace.span(
                    "root_search", worker=worker_id, root=root
                ) as sp:
                    delta = search.run(root, store, root_stats)
                    sp.set(labels=len(delta))
                search.commit(root, delta, store)
                verts.extend(v for v, _d in delta)
                dists.extend(d for _v, d in delta)
                ranks.append(search.rank_of(root))
                per_root.append((len(delta), _pack_stats(root_stats)))
            root = None
            own_ranks = np.array(ranks, dtype=np.int64)
            hub_ranks = np.repeat(own_ranks, [k for k, _s in per_root])
            conn.send((
                "done",
                np.array(verts, dtype=np.int64),
                hub_ranks,
                np.array(dists, dtype=np.float64),
                per_root,
            ))
    except EOFError:
        # The parent went away (its pipe end closed): nothing to report
        # to, just exit quietly.
        return
    except BaseException as exc:  # shipped to the parent below
        _flightrec.record(
            "worker_failure", worker=worker_id, root=root, error=repr(exc)
        )
        try:
            payload: Optional[bytes] = pickle.dumps(exc)
        except Exception as pickle_exc:
            payload = None  # unpicklable exception: parent wraps the repr
            _flightrec.record(
                "worker_exc_unpicklable",
                worker=worker_id,
                error=repr(pickle_exc),
            )
        try:
            conn.send(
                ("error", root, payload, repr(exc), traceback.format_exc())
            )
        except (OSError, BrokenPipeError):
            pass  # parent already gone; exception was flight-recorded
    finally:
        if relay_client is not None:
            relay_client.close()
        if log is not None:
            log.close()
        if shared_graph is not None:
            shared_graph.close()
        conn.close()


def _shipped_failure(worker_id: int, msg: Tuple[Any, ...]) -> WorkerFailure:
    """The :class:`WorkerFailure` carried by a worker's ``error`` message."""
    _tag, root, payload, exc_repr, tb = msg
    if payload is not None:
        try:
            return WorkerFailure(worker_id, root, pickle.loads(payload))
        except Exception as unpickle_exc:
            exc_repr = f"{exc_repr} (unpicklable: {unpickle_exc!r})"
    return WorkerFailure(
        worker_id,
        root,
        TaskError(
            f"worker {worker_id} failed on root {root}: {exc_repr}\n{tb}",
            worker=worker_id,
            root=root,
        ),
    )


def _reraise_first(errors: List[WorkerFailure]) -> None:
    """Re-raise the first failure with the thread backend's shape."""
    failure = errors[0]
    where = (
        f"while indexing root {failure.root}"
        if failure.root is not None
        else "before taking a task"
    )
    _flightrec.auto_dump("worker_failure")
    raise failure.exc from TaskError(
        f"worker {failure.worker} failed {where} "
        f"({len(errors)} worker(s) failed in total)",
        worker=failure.worker,
        root=failure.root,
        failures=len(errors),
    )


def build_parallel_procs(
    graph: CSRGraph,
    num_procs: int,
    policy: str = "dynamic",
    order: Optional[Sequence[int]] = None,
    chunk: int = 1,
    engine: str = "dijkstra",
    start_method: Optional[str] = None,
    relay: Optional[Tuple[str, int]] = None,
    timeout: Optional[float] = None,
) -> PLLIndex:
    """Build a PLL index with *num_procs* worker processes on real cores.

    Args:
        graph: the graph to index.
        num_procs: worker count ``p`` (>= 1).
        policy: ``"static"`` or ``"dynamic"`` task assignment (the
            policies run in the parent; pipes are the dispatch channel).
        order: vertex ordering (defaults to descending degree).
        chunk: dynamic-policy grab size (ignored for static).
        engine: ``"dijkstra"`` (weighted) or ``"bfs"`` (hop counts).
        start_method: ``multiprocessing`` start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``; default: the platform's,
            which is what lets tests monkeypatch the engine registry
            pre-fork on Linux).
        relay: optional ``(host, port)`` of a running
            :class:`~repro.obs.relay.Collector`; each worker relays its
            telemetry there with its worker id as rank.
        timeout: optional stall guard in seconds — if *no* worker makes
            progress for this long the build terminates the fleet and
            raises, instead of hanging on a wedged child.

    Returns:
        A finalized :class:`~repro.core.index.PLLIndex`; queries are
        exact vs. a serial build (Proposition 1), though the label set
        may contain redundant entries.

    Raises:
        TaskError: for invalid parameters, a stalled build, or (as the
            ``__cause__`` of the re-raised original) a worker failure;
            a worker killed outright surfaces as a plain ``TaskError``
            naming the worker, the first root of its unfinished block
            (``root``), the whole block (``roots``) and its exit code.
    """
    if num_procs < 1:
        raise TaskError("num_procs must be >= 1")
    if order is None:
        order = by_degree(graph)
    order = np.asarray(order, dtype=np.int64)
    n = graph.num_vertices
    assignment = make_assignment(policy, order, num_procs, chunk=chunk)

    ctx = mp.get_context(start_method)
    shared_graph = SharedGraph.export(graph)
    log = GrowableLabelLog(capacity=max(1024, 4 * n))
    monitor = _buildmon.active()
    errors: List[WorkerFailure] = []

    # Worker states: "busy" (owes us a block), "stopping" (stop sent,
    # waiting for a clean exit), "done" (exited cleanly), "dead".
    state: Dict[int, str] = {}
    parent_conns: Dict[int, Any] = {}
    procs: Dict[int, Any] = {}
    blocks: Dict[int, List[int]] = {}
    block_size: Dict[int, int] = {}

    def send_next(worker_id: int) -> None:
        """Dispatch the next block of roots to *worker_id*, or stop it."""
        block: List[int] = []
        while not errors and len(block) < block_size[worker_id]:
            root = assignment.next_task(worker_id)
            if root is None:
                break
            block.append(int(root))
        blocks[worker_id] = block
        state[worker_id] = "busy" if block else "stopping"
        try:
            parent_conns[worker_id].send(
                ("task", block, log.meta) if block else ("stop",)
            )
        except OSError:
            pass  # died since its last message: its sentinel reports it

    def commit(worker_id: int, msg: Tuple[Any, ...]) -> None:
        """Commit one worker's block: shared log, then per-root telemetry."""
        _tag, verts, hub_ranks, dists, per_root = msg
        block = blocks[worker_id]
        log.append(verts, hub_ranks, dists)
        blocks[worker_id] = []
        block_size[worker_id] = _next_block_size(
            len(block), len(verts), log.committed
        )
        for root, (labels, packed) in zip(block, per_root):
            _flightrec.record(
                "label_commit", worker=worker_id, root=root, labels=labels
            )
            if monitor is not None:
                monitor.root_done(
                    worker_id, root, stats=_unpack_stats(packed),
                    labels=labels,
                )
            if _obs_config.METRICS:
                _inst.WORKER_ROOTS.labels(worker=str(worker_id)).inc()
                _inst.COMMITS.inc()

    def fail(failure: WorkerFailure) -> None:
        """Record *failure* and tell every busy worker to stop now."""
        errors.append(failure)
        for k, s in state.items():
            if s != "busy":
                continue
            try:
                parent_conns[k].send(("stop",))
            except OSError:
                pass  # already gone: its sentinel reports it
            state[k] = "stopping"

    def handle(worker_id: int, msg: Tuple[Any, ...], alive: bool) -> None:
        """Act on one message; dispatch more work only if *alive*."""
        if msg[0] == "error":
            state[worker_id] = "stopping"  # it exits after sending
            fail(_shipped_failure(worker_id, msg))
        elif state[worker_id] == "busy":
            commit(worker_id, msg)
            if alive:
                send_next(worker_id)
        # A "done" from a stopping worker raced the stop: the build is
        # failing, so the block is dropped.

    t0 = time.perf_counter()
    try:
        with _trace.span(
            "build_parallel_procs",
            procs=num_procs,
            policy=policy,
            n=n,
        ):
            for k in range(num_procs):
                parent_end, child_end = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        k,
                        shared_graph.meta,
                        order,
                        engine,
                        child_end,
                        monitor is not None,
                        relay,
                    ),
                    name=f"parapll-proc-{k}",
                    daemon=True,
                )
                proc.start()
                child_end.close()  # the worker holds the only copy now
                parent_conns[k] = parent_end
                procs[k] = proc
                block_size[k] = 1
                send_next(k)

            last_progress = time.monotonic()
            while any(s in ("busy", "stopping") for s in state.values()):
                live = [
                    k for k, s in state.items() if s in ("busy", "stopping")
                ]
                conn_of = {parent_conns[k]: k for k in live}
                sentinel_of = {procs[k].sentinel: k for k in live}
                ready = mp_connection.wait(
                    list(conn_of) + list(sentinel_of), timeout=1.0
                )
                if not ready:
                    if (
                        timeout is not None
                        and time.monotonic() - last_progress > timeout
                    ):
                        raise TaskError(
                            f"parallel build stalled: no worker progress "
                            f"for {timeout:.1f}s (first roots of the "
                            f"blocks in flight: "
                            f"{ {k: b[0] for k, b in blocks.items() if b} })"
                        )
                    continue
                last_progress = time.monotonic()
                # Messages first: a worker that sent its goodbye and
                # exited has both its pipe and its sentinel ready, and
                # the pipe carries the truth.
                for obj in ready:
                    k = conn_of.get(obj)
                    if k is None or state[k] not in ("busy", "stopping"):
                        continue
                    try:
                        msg = parent_conns[k].recv()
                    except (EOFError, OSError):
                        continue  # resolved via the sentinel below
                    handle(k, msg, alive=True)
                for obj in ready:
                    k = sentinel_of.get(obj)
                    if k is None or state[k] not in ("busy", "stopping"):
                        continue
                    # Drain any goodbye that raced the exit.
                    while parent_conns[k].poll():
                        try:
                            msg = parent_conns[k].recv()
                        except (EOFError, OSError):
                            break
                        handle(k, msg, alive=False)
                    procs[k].join()
                    if state[k] != "busy":
                        state[k] = "done"
                        continue
                    # Died without being told to stop: SIGKILL, OOM,
                    # hard crash.  No root of its block came back.
                    block = blocks[k]
                    root = block[0] if block else None
                    code = procs[k].exitcode
                    _flightrec.record(
                        "worker_failure",
                        worker=k,
                        root=root,
                        error=f"process died (exitcode {code})",
                    )
                    state[k] = "dead"
                    fail(
                        WorkerFailure(
                            worker=k,
                            root=root,
                            exc=TaskError(
                                f"worker {k} died while indexing "
                                f"root {root} (exitcode {code})",
                                worker=k,
                                root=root,
                                roots=list(block),
                                exitcode=code,
                            ),
                        )
                    )
            if not errors:
                verts, hub_ranks, dists = log.read(0, log.committed)
                store = LabelStore.from_entries(n, verts, hub_ranks, dists)
    finally:
        for k, proc in procs.items():
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        for conn in parent_conns.values():
            conn.close()
        shared_graph.close(unlink=True)
        log.close_all()
    elapsed = time.perf_counter() - t0
    if errors:
        _reraise_first(errors)

    stats = IndexStats.from_sizes(store.label_sizes(), elapsed)
    return PLLIndex(store, order, graph=graph, stats=stats)
