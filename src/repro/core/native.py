"""The compiled half of the build and the query: ``pruned_dijkstra.c``,
built on demand.

The C file holds four entry points, each called with one int64 context
array of pointers and lengths:

* ``pd_run(cx, root, root_rank, at)`` — one root's pruned search, for
  :class:`~repro.core.pruned_dijkstra.PrunedDijkstra`; its context is
  laid out as :data:`SEARCH_SLOTS`.
* ``ls_append(cx, hub, verts, dists, i, k)`` — one root's delta appended
  into a label arena in place, for
  :meth:`LabelStore.add_root <repro.core.labels.LabelStore.add_root>`;
  its context is laid out as :data:`STORE_SLOTS`.
* ``pq_join(cx, s, t, out)`` — one distance query, a merge join of two
  finalized labels, for :func:`~repro.core.query.query_distance` and
  :func:`~repro.core.query.query_result`; and
  ``pq_batch(cx, pairs, m, out)``, the same join looped over *m* pairs,
  for :func:`~repro.core.query.query_distance_batch`.  Their context,
  laid out as :data:`QUERY_SLOTS`, belongs to the finalized store
  (:meth:`LabelStore.query_context
  <repro.core.labels.LabelStore.query_context>`).

Every call holds the GIL (``ctypes.PyDLL``).  Nothing compiles at
import: the first :func:`load` in a process compiles the source into a
cache, or loads the object already there; the query path calls it on
its first query, so a server's start never waits for a compile.
Without a compiler it logs one warning and returns None, and the
callers run their Python code instead: the search loop, the numpy
append, and the Python merge join.  See DESIGN.md section 17.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.resources
import logging
import os
import subprocess
import tempfile
import threading
from typing import Any, Optional

__all__ = ["COMPILER", "QUERY_SLOTS", "SEARCH_SLOTS", "STORE_SLOTS", "load"]

logger = logging.getLogger(__name__)

#: The C compiler that builds the kernel.
COMPILER = "cc"

#: Context slots of ``pd_run``, in the C enum's order: the vertex count,
#: the arena's ``off``, ``size``, ``ah``, ``ad`` and its length, the
#: graph's CSR arrays, the scratch arrays and the counters.
SEARCH_SLOTS = (
    "n", "off", "size", "ah", "ad", "na", "indptr", "indices", "weights",
    "dist", "tmp", "touched", "heap", "out_v", "out_d", "cnt",
)
#: Context slots of ``ls_append``, in the C enum's order: the vertex
#: count, a run's first capacity, the arena's arrays and length, and
#: ``end``, the first arena slot no run owns, which the call writes.
STORE_SLOTS = (
    "n", "run_min", "off", "size", "ah", "ad", "cap", "na", "end",
)
#: Context slots of ``pq_join`` and ``pq_batch``, in the C enum's order:
#: the vertex count, the finalized CSR arrays and the entry count.
QUERY_SLOTS = ("n", "indptr", "hubs", "dists", "ne")

_SOURCE = "pruned_dijkstra.c"
_UNTRIED: Any = object()
_lib: Any = _UNTRIED
_lock = threading.Lock()


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/parapll`` or ``~/.cache/parapll``, whichever is
    writable first; else a private new directory under the temp dir."""
    for base in (
        os.environ.get("XDG_CACHE_HOME"),
        os.path.join(os.path.expanduser("~"), ".cache"),
    ):
        if not base:
            continue
        path = os.path.join(base, "parapll")
        try:
            os.makedirs(path, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK):
            return path
    return tempfile.mkdtemp(prefix="parapll-")


def _compile() -> ctypes.PyDLL:
    """The compiled object, built into the cache unless there.

    The object's name carries the interpreter's ``EXT_SUFFIX`` (the
    first extension suffix), which names the platform and ABI, beside
    the source hash.  It is written to a per-process file and renamed
    into place, so a concurrent process never loads half a file.
    """
    source = importlib.resources.files("repro.core").joinpath(_SOURCE)
    key = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(_cache_dir(), f"pruned_dijkstra-{key}{suffix}")
    if not os.path.exists(path):
        part = f"{path}.{os.getpid()}.tmp"
        try:
            with importlib.resources.as_file(source) as src:
                subprocess.run(
                    [COMPILER, "-O2", "-shared", "-fPIC", str(src), "-o", part],
                    check=True, capture_output=True, text=True, timeout=300,
                )
            os.replace(part, path)
        finally:
            if os.path.exists(part):
                os.unlink(part)
    # PyDLL keeps the GIL for the whole call (DESIGN.md section 17).
    lib = ctypes.PyDLL(path)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.pd_run.argtypes = [ptr, i64, i64, i64]
    lib.pd_run.restype = i64
    lib.ls_append.argtypes = [ptr, i64, ptr, ptr, i64, i64]
    lib.ls_append.restype = i64
    lib.pq_join.argtypes = [ptr, i64, i64, ptr]
    lib.pq_join.restype = ctypes.c_double
    lib.pq_batch.argtypes = [ptr, ptr, i64, ptr]
    lib.pq_batch.restype = i64
    return lib


def load() -> Optional[ctypes.PyDLL]:
    """The compiled library, or None when it cannot be built.

    The first call in a process compiles or loads the cached object; a
    failure is logged once per process, and every later call returns
    None at once.
    """
    global _lib
    lib = _lib
    if lib is not _UNTRIED:
        return lib
    with _lock:
        if _lib is _UNTRIED:
            try:
                _lib = _compile()
            except (OSError, subprocess.SubprocessError) as exc:
                detail = (getattr(exc, "stderr", None) or str(exc)).strip()
                logger.warning(
                    "compiled kernels unavailable, using the Python "
                    "loop: %s", detail[-500:]
                )
                _lib = None
        return _lib
