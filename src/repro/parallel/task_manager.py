"""The ParaPLL task manager: static and dynamic assignment policies.

The task manager hands degree-ordered root vertices to workers:

* **Static** (paper §4.3, Figure 2): vertices are dealt round-robin to
  the *p* workers before indexing starts; worker *k* processes
  ``order[k], order[k + p], order[k + 2p], ...`` in sequence.
* **Dynamic** (paper §4.4, Figure 3, Algorithm 2): a single shared
  queue; whichever worker becomes free takes the highest-ranked
  unindexed vertex.  A lock makes the take atomic.

Both policies are exposed through one tiny interface so the thread
pool, the discrete-event simulator, and the cluster substrate share the
assignment logic — the paper's point that only the *assignment policy*
differs between configurations.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

from repro.check import hooks as _check_hooks
from repro.errors import TaskError
from repro.obs import config as _obs_config
from repro.obs.instruments import TASKS_DISPATCHED

__all__ = [
    "TaskAssignment",
    "StaticAssignment",
    "DynamicAssignment",
    "make_assignment",
]


class TaskAssignment(Protocol):
    """Hands out root vertices to workers."""

    num_workers: int

    def next_task(self, worker: int) -> Optional[int]:
        """The next root for *worker*, or ``None`` when it has no more work."""

    def remaining(self) -> int:
        """How many tasks have not yet been handed out."""


class StaticAssignment:
    """Round-robin pre-assignment (the paper's static policy).

    Args:
        order: vertex ordering, most important first.
        num_workers: number of workers ``p``.
    """

    def __init__(self, order: Sequence[int], num_workers: int) -> None:
        if num_workers < 1:
            raise TaskError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._queues: List[List[int]] = [[] for _ in range(num_workers)]
        for i, v in enumerate(order):
            self._queues[i % num_workers].append(int(v))
        # Position cursor per worker; a lock is unnecessary because each
        # worker only touches its own cursor, but we keep one for the
        # remaining() aggregate used by monitors.
        self._cursors = [0] * num_workers
        self._lock = _check_hooks.make_lock("StaticAssignment._lock")
        # Per-worker sanitizer locations: each cursor is thread-confined
        # by construction, which the race sanitizer verifies.
        self._san_locs = [
            f"StaticAssignment#{id(self)}._cursors[{k}]"
            for k in range(num_workers)
        ]
        self._dispatched = TASKS_DISPATCHED.labels(policy="static")

    def next_task(self, worker: int) -> Optional[int]:
        """Next pre-assigned root for *worker* (``None`` when exhausted)."""
        if not 0 <= worker < self.num_workers:
            raise TaskError(f"worker {worker} out of range")
        _check_hooks.access(self._san_locs[worker], write=True)
        cursor = self._cursors[worker]
        queue = self._queues[worker]
        if cursor >= len(queue):
            return None
        self._cursors[worker] = cursor + 1
        if _obs_config.METRICS:
            self._dispatched.inc()
        return queue[cursor]

    def remaining(self) -> int:
        """Tasks not yet handed out, across all workers."""
        with self._lock:
            return sum(
                len(q) - c for q, c in zip(self._queues, self._cursors)
            )

    def assigned_to(self, worker: int) -> List[int]:
        """The full static task list of *worker* (for tests/inspection)."""
        if not 0 <= worker < self.num_workers:
            raise TaskError(f"worker {worker} out of range")
        return list(self._queues[worker])


class DynamicAssignment:
    """Shared work queue (the paper's dynamic policy, Algorithm 2).

    Any free worker takes the next vertex; the lock reproduces
    Algorithm 2's ``Lock(Q) / Dequeue / Unlock(Q)`` critical section.

    Args:
        order: vertex ordering, most important first.
        num_workers: number of workers ``p`` (recorded for symmetry with
            the static policy; any worker id is accepted).
        chunk: how many vertices a worker takes per grab.  The paper
            uses 1; larger chunks trade queue contention against
            assignment quality (an ablation knob).
    """

    def __init__(
        self, order: Sequence[int], num_workers: int, chunk: int = 1
    ) -> None:
        if num_workers < 1:
            raise TaskError("num_workers must be >= 1")
        if chunk < 1:
            raise TaskError("chunk must be >= 1")
        self.num_workers = num_workers
        self.chunk = chunk
        self._order = [int(v) for v in order]
        self._next = 0
        self._lock = _check_hooks.make_lock("DynamicAssignment._lock")
        self._san_loc = f"DynamicAssignment#{id(self)}._next"
        # Per-worker chunk buffers as (tasks, cursor) pairs: an index
        # cursor makes draining a chunk O(chunk) total instead of the
        # O(chunk^2) of repeated ``list.pop(0)`` front-shifts.
        self._buffers: dict[int, List] = {}
        self._dispatched = TASKS_DISPATCHED.labels(policy="dynamic")

    def next_task(self, worker: int) -> Optional[int]:
        """Take the highest-ranked unindexed vertex (``None`` when done)."""
        buffer = self._buffers.get(worker)
        if buffer is not None and buffer[1] < len(buffer[0]):
            task = buffer[0][buffer[1]]
            with self._lock:
                buffer[1] += 1
            if _obs_config.METRICS:
                self._dispatched.inc()
            return task
        with self._lock:
            _check_hooks.access(self._san_loc, write=True)
            if self._next >= len(self._order):
                return None
            lo = self._next
            hi = min(lo + self.chunk, len(self._order))
            self._next = hi
            taken = self._order[lo:hi]
            # Cursor 1: the first task of the chunk is handed out now.
            self._buffers[worker] = [taken, 1]
        if _obs_config.METRICS:
            self._dispatched.inc()
        return taken[0]

    def remaining(self) -> int:
        """Tasks not yet *processed*: shared queue plus worker buffers.

        Buffered-but-unprocessed chunk tasks count as remaining, so
        monitors' ETAs no longer jump by up to ``chunk * workers``
        roots the moment chunks are grabbed.
        """
        with self._lock:
            _check_hooks.access(self._san_loc, write=False)
            buffered = sum(
                len(tasks) - cursor
                for tasks, cursor in self._buffers.values()
            )
            return len(self._order) - self._next + buffered


def make_assignment(
    policy: str, order: Sequence[int], num_workers: int, chunk: int = 1
) -> TaskAssignment:
    """Factory: ``"static"`` or ``"dynamic"`` assignment over *order*.

    Raises:
        TaskError: for unknown policy names.
    """
    if policy == "static":
        return StaticAssignment(order, num_workers)
    if policy == "dynamic":
        return DynamicAssignment(order, num_workers, chunk=chunk)
    raise TaskError(f"unknown assignment policy {policy!r} (static|dynamic)")
