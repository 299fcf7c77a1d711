"""Shared-memory plumbing for the multiprocess ParaPLL backend.

Two structures cross the process boundary in :mod:`repro.parallel.procs`:

* :class:`SharedGraph` — the immutable graph CSR triple (``indptr``,
  ``indices``, ``weights``) exported once by the parent into one
  ``multiprocessing.shared_memory`` segment.  Workers attach and wrap
  the buffer in a normal :class:`~repro.graph.csr.CSRGraph` without
  copying the arrays, so ``p`` workers share one physical copy of the
  graph regardless of the start method (``fork`` *or* ``spawn``).
* :class:`LabelLog` — the committed-label arena: an append-only log of
  ``(vertex, hub_rank, dist)`` triples written by exactly one process
  (the parent, ParaPLL's Algorithm-2 critical section collapsed into a
  single writer) and read by every worker.  Visibility follows the same
  commit-ordering discipline as the thread backend's dist-before-hub
  appends: the writer stores the entry arrays *first* and advances the
  ``committed`` header counter *last*, so a reader that snapshots
  ``committed`` sees fully written entries for everything below it.
  One int64 store is the linearisation point; there is no cross-process
  lock on the read path at all.

:class:`GrowableLabelLog` handles the one thing a fixed arena cannot:
unknown final label counts.  When an append outgrows the segment the
writer allocates a doubled segment, copies the committed prefix, and
keeps the old generations alive until the build ends — readers attached
to a stale generation still see a frozen-but-consistent prefix and
re-attach at their next task boundary (the dispatch message names the
current segment).  Entry indices are stable across generations, so a
reader's ``synced`` cursor survives re-attachment unchanged.

Attachment is deliberately *not* done through
``SharedMemory(name=...)``: on the Pythons this repo targets an attach
registers the name with the ``multiprocessing`` resource tracker a
second time, and under ``fork`` every worker shares the parent's
tracker process, so worker exits race each other unlinking/unregistering
the same name (KeyError spam from the tracker, or worse, a segment
yanked out from under a sibling).  Readers instead open the segment's
backing file (``/dev/shm/<name>`` on Linux) and map it read-only — no
tracker involvement, no ownership, and a quiet exit even while numpy
views into the map are still referenced.
"""

from __future__ import annotations

import mmap
import os
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import TaskError
from repro.graph.csr import CSRGraph

__all__ = ["SharedGraph", "LabelLog", "GrowableLabelLog"]

#: Where POSIX shared-memory segments surface as files (Linux).
_SHM_DIR = "/dev/shm"


def _align8(offset: int) -> int:
    """Round *offset* up to an 8-byte boundary (float64/int64 views)."""
    return (offset + 7) & ~7


class _AttachedSegment:
    """A read-only, tracker-free mapping of an existing shared segment.

    Duck-types the slice of the ``SharedMemory`` interface the log and
    graph wrappers use (``name``, ``buf``, ``close``).  ``close`` is
    best-effort: if numpy views still reference the buffer the mapping
    simply lives until process exit, silently (``mmap`` has no noisy
    ``__del__``, unlike ``SharedMemory``).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        path = os.path.join(_SHM_DIR, name.lstrip("/"))
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
        self.buf: Any = memoryview(self._mmap)

    def close(self) -> None:
        try:
            self.buf.release()
            self._mmap.close()
        except (BufferError, ValueError):
            pass  # views still alive: unmapped at process exit instead

    def unlink(self) -> None:
        """Readers never own the segment; unlink is a no-op."""


def _attach_segment(name: str) -> Any:
    """Attach to an existing segment without adopting its lifetime."""
    try:
        return _AttachedSegment(name)
    except OSError:
        # No /dev/shm (non-Linux): fall back to a SharedMemory attach
        # and strip the extra tracker registration it creates.
        seg = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except (ImportError, AttributeError, KeyError):
            pass  # tracker API drift: worst case is a shutdown warning
        return seg


def _close_segment(seg: Any, unlink: bool) -> None:
    """Best-effort close (+ optional unlink) of one segment."""
    try:
        seg.close()
    except BufferError:
        # numpy views into the buffer are still alive somewhere; the
        # mapping goes away with the process instead.
        if not unlink:
            return
    except OSError:
        return
    if unlink:
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):
            pass


class SharedGraph:
    """One graph CSR triple in one shared-memory segment.

    Parent side::

        shared = SharedGraph.export(graph)
        meta = shared.meta          # picklable, hand to workers
        ...
        shared.close(unlink=True)   # after the build

    Worker side::

        shared = SharedGraph.attach(meta)
        graph = shared.graph        # zero-copy CSRGraph over the segment
    """

    def __init__(
        self, segment: Any, meta: Dict[str, Any], owner: bool
    ) -> None:
        self._segment = segment
        self.meta = meta
        self._owner = owner
        self.graph = self._wrap()

    # ------------------------------------------------------------------
    @staticmethod
    def _layout(n: int, arcs: int) -> Tuple[int, int, int, int]:
        """Byte offsets ``(indptr, indices, weights, total)``."""
        off_indptr = 0
        off_indices = _align8(off_indptr + 8 * (n + 1))
        off_weights = _align8(off_indices + 4 * arcs)
        total = off_weights + 8 * arcs
        return off_indptr, off_indices, off_weights, total

    @classmethod
    def export(cls, graph: CSRGraph) -> "SharedGraph":
        """Copy *graph*'s CSR arrays into a fresh shared segment."""
        n = graph.num_vertices
        arcs = graph.num_arcs
        off_p, off_i, off_w, total = cls._layout(n, arcs)
        segment = shared_memory.SharedMemory(create=True, size=max(total, 8))
        meta = {
            "segment": segment.name,
            "n": n,
            "arcs": arcs,
            "name": graph.name,
        }
        buf = segment.buf
        np.frombuffer(buf, np.int64, n + 1, off_p)[:] = graph.indptr
        np.frombuffer(buf, np.int32, arcs, off_i)[:] = graph.indices
        np.frombuffer(buf, np.float64, arcs, off_w)[:] = graph.weights
        return cls(segment, meta, owner=True)

    @classmethod
    def attach(cls, meta: Dict[str, Any]) -> "SharedGraph":
        """Attach to a segment exported by another process."""
        return cls(_attach_segment(meta["segment"]), dict(meta), owner=False)

    def _wrap(self) -> CSRGraph:
        n = int(self.meta["n"])
        arcs = int(self.meta["arcs"])
        off_p, off_i, off_w, _total = self._layout(n, arcs)
        buf = self._segment.buf
        return CSRGraph(
            np.frombuffer(buf, np.int64, n + 1, off_p),
            np.frombuffer(buf, np.int32, arcs, off_i),
            np.frombuffer(buf, np.float64, arcs, off_w),
            name=str(self.meta["name"]),
        )

    def close(self, unlink: bool = False) -> None:
        """Release the mapping; the owner also unlinks the name."""
        # Drop the numpy views first or close() raises BufferError.
        self.graph = None  # type: ignore[assignment]
        _close_segment(self._segment, unlink=unlink and self._owner)


class LabelLog:
    """A single-writer append-only log of committed label entries.

    Layout: an 8-slot int64 header (``[0]`` = committed entry count,
    the rest reserved) followed by three parallel arrays of *capacity*
    entries: ``verts`` (int64), ``hub_ranks`` (int64), ``dists``
    (float64).

    The writer appends entry data, then advances ``committed`` — one
    int64 store, the cross-process linearisation point.  Readers
    snapshot ``committed`` and may consume any prefix up to it.
    """

    HEADER_SLOTS = 8

    def __init__(self, segment: Any, capacity: int, owner: bool) -> None:
        self._segment = segment
        self.capacity = capacity
        self._owner = owner
        buf = segment.buf
        head = 8 * self.HEADER_SLOTS
        self._header = np.frombuffer(buf, np.int64, self.HEADER_SLOTS, 0)
        self._verts = np.frombuffer(buf, np.int64, capacity, head)
        self._hubs = np.frombuffer(buf, np.int64, capacity, head + 8 * capacity)
        self._dists = np.frombuffer(
            buf, np.float64, capacity, head + 16 * capacity
        )

    # ------------------------------------------------------------------
    @property
    def meta(self) -> Dict[str, Any]:
        """Picklable attachment handle ``{"segment", "capacity"}``."""
        return {"segment": self._segment.name, "capacity": self.capacity}

    @classmethod
    def create(cls, capacity: int) -> "LabelLog":
        """Allocate a fresh zeroed log for *capacity* entries."""
        if capacity < 1:
            raise TaskError("label log capacity must be >= 1")
        size = 8 * cls.HEADER_SLOTS + 24 * capacity
        segment = shared_memory.SharedMemory(create=True, size=size)
        log = cls(segment, capacity, owner=True)
        log._header[0] = 0
        return log

    @classmethod
    def attach(cls, meta: Dict[str, Any]) -> "LabelLog":
        """Attach to a log created by another process."""
        return cls(
            _attach_segment(meta["segment"]),
            int(meta["capacity"]),
            owner=False,
        )

    # ------------------------------------------------------------------
    @property
    def committed(self) -> int:
        """Entries visible to readers (reader-side snapshot point)."""
        return int(self._header[0])

    def append(
        self,
        verts: np.ndarray,
        hub_ranks: np.ndarray,
        dists: np.ndarray,
    ) -> bool:
        """Writer only: append one batch; ``False`` when it won't fit.

        Data is stored before the ``committed`` counter advances, so a
        concurrent reader never observes a half-written entry.
        """
        k = len(verts)
        lo = int(self._header[0])
        if lo + k > self.capacity:
            return False
        self._verts[lo:lo + k] = verts
        self._hubs[lo:lo + k] = hub_ranks
        self._dists[lo:lo + k] = dists
        self._header[0] = lo + k
        return True

    def read(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries ``[lo, hi)`` as array views (copy before long-term use).

        *hi* must not exceed a previously observed :attr:`committed`.
        """
        return (
            self._verts[lo:hi],
            self._hubs[lo:hi],
            self._dists[lo:hi],
        )

    def close(self, unlink: bool = False) -> None:
        """Release the mapping; the owner also unlinks the name."""
        self._header = self._verts = self._hubs = self._dists = None  # type: ignore[assignment]
        _close_segment(self._segment, unlink=unlink and self._owner)


class GrowableLabelLog:
    """Writer-side label log that reallocates when an append outgrows it.

    Old generations stay alive (readers may still be attached to them)
    until :meth:`close_all`; every generation holds the same committed
    prefix up to its freeze point, so reader cursors remain valid across
    re-attachment.
    """

    def __init__(self, capacity: int) -> None:
        self._current = LabelLog.create(max(int(capacity), 1))
        self._generations: List[LabelLog] = [self._current]

    @property
    def meta(self) -> Dict[str, Any]:
        """Attachment handle of the *current* generation."""
        return self._current.meta

    @property
    def committed(self) -> int:
        """Entries committed so far (stable across generations)."""
        return self._current.committed

    @property
    def generations(self) -> int:
        """How many segments this log has occupied (1 = never grown)."""
        return len(self._generations)

    def append(
        self,
        verts: np.ndarray,
        hub_ranks: np.ndarray,
        dists: np.ndarray,
    ) -> None:
        """Append one batch, growing into a doubled segment if needed."""
        if self._current.append(verts, hub_ranks, dists):
            return
        committed = self._current.committed
        needed = committed + len(verts)
        capacity = max(2 * self._current.capacity, 2 * needed)
        bigger = LabelLog.create(capacity)
        old_v, old_h, old_d = self._current.read(0, committed)
        bigger.append(old_v, old_h, old_d)
        bigger.append(verts, hub_ranks, dists)
        self._current = bigger
        self._generations.append(bigger)

    def read(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries ``[lo, hi)`` of the current generation (views)."""
        return self._current.read(lo, hi)

    def close_all(self) -> None:
        """Close and unlink every generation (build teardown)."""
        for log in self._generations:
            log.close(unlink=True)
        self._generations = []
