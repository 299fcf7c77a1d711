"""``ThreadComm``: a *concurrent* message-passing substrate over threads.

:class:`~repro.cluster.comm.SimComm` is cooperative (a single driver
invokes every rank) and models virtual time; ``ThreadComm`` is its
execution-oriented sibling: each rank runs on its own thread and the
communicator provides genuinely blocking ``send``/``recv``/``bcast``/
``allgather``/``barrier`` between them, with the same lowercase
mpi4py-flavoured surface.  Ranks share no algorithm state — the cluster
runner built on top (:mod:`repro.cluster.runner`) gives every rank a
private label store and communicates *only* through this interface, so
the code is structured exactly like an MPI program and would port to
``mpi4py.MPI.COMM_WORLD`` by swapping the communicator object.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check import hooks as _check_hooks
from repro.errors import CommError
from repro.obs import config as _obs_config
from repro.obs import context as _ctx
from repro.obs import flightrec as _flightrec
from repro.obs import trace as _trace

__all__ = ["ThreadComm", "run_ranks"]


def _record_send(env: _ctx.Envelope, src: int, dest: Optional[int]) -> None:
    """Trace one message departure (no-op unless tracing is on)."""
    if not _obs_config.TRACING:
        return
    ctx = env.ctx
    _trace.event(
        "comm_send",
        flow="out",
        flow_id=env.flow_id,
        trace_id=ctx.trace_id if ctx else None,
        src=src,
        dest=dest,
    )


def _record_recv(
    env_ctx: Optional[_ctx.TraceContext],
    flow_id: Optional[str],
    src: int,
    dest: int,
) -> None:
    """Trace one message arrival (no-op unless tracing is on)."""
    if not _obs_config.TRACING or flow_id is None:
        return
    _trace.event(
        "comm_recv",
        flow="in",
        flow_id=flow_id,
        trace_id=env_ctx.trace_id if env_ctx else None,
        src=src,
        dest=dest,
    )


class ThreadComm:
    """A blocking communicator over *size* thread-backed ranks.

    One ``ThreadComm`` object is shared by all rank threads; every
    method takes the calling rank explicitly (threads are anonymous).

    Args:
        size: number of ranks.
        timeout: safety timeout in seconds for blocking operations —
            a deadlocked collective raises instead of hanging the test
            suite forever.
    """

    def __init__(self, size: int, timeout: float = 30.0) -> None:
        if size < 1:
            raise CommError("communicator size must be >= 1")
        self.size = size
        self.timeout = timeout
        self._boxes: Dict[Tuple[int, int, int], "queue.Queue[Any]"] = {}
        self._boxes_lock = _check_hooks.make_lock("ThreadComm._boxes_lock")
        self._barrier = threading.Barrier(size)
        # Allgather state: a slot list plus a barrier-protected epoch.
        self._gather_lock = _check_hooks.make_lock("ThreadComm._gather_lock")
        self._gather_slots: List[Any] = [None] * size
        self._gather_filled: List[bool] = [False] * size
        # Race-sanitizer locations (no-ops unless repro.check is active).
        # Slot *reads* in allgather are barrier-ordered, not lock-
        # protected, so only the lock-guarded mutations are tracked.
        self._san_boxes = f"ThreadComm#{id(self)}._boxes"
        self._san_gather = f"ThreadComm#{id(self)}._gather_slots"
        # Happens-before event names (vector-clock sanitizer): one
        # channel per (source, dest, tag) mailbox, one barrier name.
        self._hb_prefix = f"ThreadComm#{id(self)}"
        self._hb_barrier = f"{self._hb_prefix}.barrier"

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommError(f"rank {rank} out of range [0, {self.size})")

    def _box(self, source: int, dest: int, tag: int) -> "queue.Queue[Any]":
        key = (source, dest, tag)
        with self._boxes_lock:
            _check_hooks.access(self._san_boxes, write=True)
            box = self._boxes.get(key)
            if box is None:
                box = queue.Queue()
                self._boxes[key] = box
            return box

    # ------------------------------------------------------------------
    def send(self, payload: Any, source: int, dest: int, tag: int = 0) -> None:
        """Deliver *payload* to *dest*'s mailbox (non-blocking).

        The payload travels inside a :class:`repro.obs.context.Envelope`
        stamped with the sender's :class:`~repro.obs.context.TraceContext`
        so cross-rank traces stitch into one timeline; ``recv`` unwraps
        transparently.
        """
        self._check_rank(source)
        self._check_rank(dest)
        env = _ctx.stamp(payload, rank=source)
        _record_send(env, src=source, dest=dest)
        # The hook token rides along with the message so the receiver
        # joins exactly this send's clock (None when no sanitizer).
        token = _check_hooks.send(
            f"{self._hb_prefix}.box.{source}.{dest}.{tag}"
        )
        self._box(source, dest, tag).put((env, token))

    def recv(self, source: int, dest: int, tag: int = 0) -> Any:
        """Block until a message from *source* arrives at *dest*.

        Raises:
            CommError: when the safety timeout expires.
        """
        self._check_rank(source)
        self._check_rank(dest)
        try:
            raw, token = self._box(source, dest, tag).get(
                timeout=self.timeout
            )
        except queue.Empty:
            raise CommError(
                f"recv timeout on rank {dest} from {source} tag {tag}"
            ) from None
        _check_hooks.recv(
            f"{self._hb_prefix}.box.{source}.{dest}.{tag}", token
        )
        payload, env_ctx, flow_id = _ctx.unwrap(raw)
        _record_recv(env_ctx, flow_id, src=source, dest=dest)
        return payload

    # ------------------------------------------------------------------
    def barrier(self, rank: int) -> None:
        """Block until every rank reaches the barrier."""
        self._check_rank(rank)
        _check_hooks.barrier(self._hb_barrier, "arrive")
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            raise CommError("barrier timed out or was broken") from None
        _check_hooks.barrier(self._hb_barrier, "depart")

    def allgather(self, rank: int, payload: Any) -> List[Any]:
        """Contribute *payload*; returns every rank's payload, in order.

        Implemented as slot-fill + two barriers (fill, read-out), so it
        is safe to call repeatedly in a loop from all ranks.
        """
        self._check_rank(rank)
        env = _ctx.stamp(payload, rank=rank)
        _record_send(env, src=rank, dest=None)
        with self._gather_lock:
            _check_hooks.access(self._san_gather, write=True)
            if self._gather_filled[rank]:
                raise CommError(
                    f"rank {rank} joined the same allgather twice"
                )
            self._gather_slots[rank] = env
            self._gather_filled[rank] = True
        self.barrier(rank)  # everyone has written
        _flightrec.record("comm_allgather", rank=rank, ranks=self.size)
        result = []
        for src, raw in enumerate(self._gather_slots):
            slot_payload, env_ctx, flow_id = _ctx.unwrap(raw)
            result.append(slot_payload)
            if src != rank:
                _record_recv(env_ctx, flow_id, src=src, dest=rank)
        self.barrier(rank)  # everyone has read
        # One designated rank resets the slots for the next round; the
        # final barrier keeps slot reuse race-free.
        if rank == 0:
            with self._gather_lock:
                _check_hooks.access(self._san_gather, write=True)
                self._gather_slots = [None] * self.size
                self._gather_filled = [False] * self.size
        self.barrier(rank)
        return result

    def bcast(self, payload: Any, root: int, rank: int) -> Any:
        """Broadcast from *root*; every rank returns the payload."""
        self._check_rank(root)
        gathered = self.allgather(rank, payload if rank == root else None)
        return gathered[root]


def run_ranks(
    comm: ThreadComm,
    fn: Callable[[int, ThreadComm], Any],
    timeout: Optional[float] = None,
    trace_context: Optional[_ctx.TraceContext] = None,
) -> List[Any]:
    """Run ``fn(rank, comm)`` on one thread per rank; gather the returns.

    Exceptions from any rank are re-raised in the caller (the first one
    by rank order) after all threads have been joined.  Before
    re-raising, the flight recorder captures a ``rank_failure`` event
    and auto-dumps (when ``PARAPLL_FLIGHTREC_DIR`` is set), and the
    raised exception gains a :class:`~repro.errors.CommError` cause
    carrying the failing rank programmatically (``cause.rank``).

    Args:
        comm: the communicator whose ``size`` defines the rank count.
        fn: the per-rank program.
        timeout: join timeout per thread (defaults to the comm's).
        trace_context: trace context to propagate into every rank
            thread (each rank activates a per-rank child so its spans
            and comm envelopes stitch into the caller's trace).
            Defaults to the caller's current context.
    """
    results: List[Any] = [None] * comm.size
    errors: List[Optional[BaseException]] = [None] * comm.size
    parent_ctx = trace_context if trace_context is not None else _ctx.current()

    def runner(rank: int) -> None:
        try:
            rank_ctx = (
                parent_ctx.child(rank=rank) if parent_ctx is not None else None
            )
            with _ctx.activate(rank_ctx):
                results[rank] = fn(rank, comm)
        except BaseException as exc:  # surfaced below
            errors[rank] = exc
            _flightrec.record(
                "rank_failure", rank=rank, error=repr(exc)
            )
            # Break the barrier so sibling ranks fail fast instead of
            # waiting out the full timeout.
            comm._barrier.abort()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}")
        for r in range(comm.size)
    ]
    for t in threads:
        _check_hooks.fork(t.name)
        t.start()
    for t in threads:
        t.join(timeout=timeout or comm.timeout + 5.0)
        if not t.is_alive():
            _check_hooks.join(t.name)
    for rank, exc in enumerate(errors):
        if exc is not None:
            _flightrec.auto_dump("rank_failure")
            raise exc from CommError(
                f"rank {rank} failed during run_ranks", rank=rank
            )
    return results
