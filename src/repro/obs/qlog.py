"""The query log: sampled per-request records of serve-path traffic.

The build path has :mod:`repro.obs.buildmon` and the query *mechanics*
have EXPLAIN, but until now nothing captured the **traffic itself** —
which pairs arrive, how often, how fast they were answered, whether the
cache helped.  That stream is what workload characterization
(:mod:`repro.obs.workload`), replay (:mod:`repro.service.replay`) and
any future shard/replica placement policy consume.  The recorder keeps
no buffer of its own: each sampled record goes to an append-only JSONL
sink (``parapll serve --qlog``).  Nor do records go onto the flight
recorder's ring — at serving rates they would evict every post-mortem
event from it.

One record per sampled query::

    {"seq", "ts", "mono", "op", "s", "t", "latency_us", "cache_hit",
     "entries_scanned", "outcome", "req_id"}

* ``ts`` / ``mono`` — wall-clock and monotonic capture times.  ``ts``
  is the *event timestamp* (when did this query happen, for humans and
  cross-host correlation); any **interval** computed between records
  (inter-arrival gaps, replay pacing) must use ``mono``, which a
  stepped wall clock cannot corrupt.
* ``op`` — ``"distance"`` for point lookups, ``"batch"`` for pairs
  served inside a batch request.
* ``latency_us`` — service time in microseconds (for batch-query
  misses this is the batch wall amortised over its pairs).
* ``cache_hit`` — answered from the oracle's LRU.
* ``entries_scanned`` — label entries the merge join consumed (0 for
  cache hits and for pairs answered by the batch query, which does not
  track per-pair scan counts).
* ``outcome`` — ``"ok"``, ``"unreachable"``, ``"error"`` or ``"shed"``
  (fast-failed by the server's SLO load shedder).
* ``req_id`` — the server request id when the query arrived over TCP
  (:func:`request_scope` propagates it through the oracle), else
  ``None``.

Sampling is controlled by the obs-config knob
``configure(qlog_sample=...)``: the recorder captures that fraction of
queries using a seeded :class:`random.Random`, so a capture is
reproducible for a fixed seed and arrival order.  With no recorder
installed the hot-path cost is one module-global load and an ``is
None`` test — the same discipline as :mod:`repro.obs.buildmon` — and
that cost is gated by the ``qlog`` row of the ``hook_overhead`` perf
workload.

Capture format (``parapll-qlog/1``): one record per line, oldest
first.  :func:`read_qlog` reads it with the one dump reader
(:func:`repro.obs.flightrec.read_dump`), which also accepts a
``parapll-qlog/1`` header line first.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from typing import IO, Any, Dict, Iterator, List, Optional, Union

from repro.obs import config as _config
from repro.obs import flightrec as _flightrec
from repro.obs.metrics import ObsError

__all__ = [
    "QLOG_SCHEMA",
    "QueryLogRecorder",
    "active",
    "install",
    "uninstall",
    "recording",
    "record_query",
    "request_scope",
    "current_req_id",
    "read_qlog",
]

QLOG_SCHEMA = "parapll-qlog/1"


class QueryLogRecorder:
    """A seeded query sampler writing sampled records to a sink.

    Args:
        sample: sampling fraction override; ``None`` reads the live
            ``configure(qlog_sample=...)`` knob on every decision so a
            running server can be re-tuned without a restart.
        sink: a path (JSONL appended per record, flushed on
            :meth:`flush`/:meth:`close`) or any object with ``write``.
        seed: seed for the sampling RNG — a fixed seed over a fixed
            arrival order captures the same subset every run.

    Without a sink, sampled records are counted in :attr:`sampled` and
    returned by :meth:`record`, nothing more.

    Thread safety: the sink write is serialized by a small lock
    (sampled records only, never the unsampled fast path).
    """

    def __init__(
        self,
        sample: Optional[float] = None,
        sink: Union[str, os.PathLike, IO[str], None] = None,
        seed: int = 0,
    ) -> None:
        if sample is not None and not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        self._seq = itertools.count(1)
        self._sample = sample
        self._seed = seed
        self._rng = random.Random(seed)
        self._sink_lock = threading.Lock()
        self._sink: Optional[IO[str]] = None
        self._sink_owned = False
        self.sampled = 0
        if sink is not None:
            if hasattr(sink, "write"):
                self._sink = sink  # type: ignore[assignment]
            else:
                self._sink = open(sink, "a", encoding="utf-8")  # type: ignore[arg-type]
                self._sink_owned = True

    # ------------------------------------------------------------------
    @property
    def sample(self) -> float:
        """The effective sampling fraction right now."""
        return (
            self._sample if self._sample is not None else _config.QLOG_SAMPLE
        )

    def should_sample(self) -> bool:
        """One sampling decision (seeded RNG against the live knob)."""
        fraction = self.sample
        if fraction >= 1.0:
            return True
        if fraction <= 0.0:
            return False
        return self._rng.random() < fraction

    def record(
        self,
        op: str,
        s: int,
        t: int,
        latency_us: float,
        cache_hit: bool = False,
        entries_scanned: int = 0,
        outcome: str = "ok",
        req_id: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Count one (already sampled) query record, write it to the
        sink, and return it."""
        rec = {
            "seq": next(self._seq),
            "ts": time.time(),
            "mono": time.monotonic(),
            "op": op,
            "s": int(s),
            "t": int(t),
            "latency_us": float(latency_us),
            "cache_hit": bool(cache_hit),
            "entries_scanned": int(entries_scanned),
            "outcome": outcome,
            "req_id": req_id,
        }
        self.sampled += 1
        if self._sink is not None:
            line = json.dumps(rec) + "\n"
            with self._sink_lock:
                self._sink.write(line)
        return rec

    def clear(self) -> None:
        """Restart the sampler: a cleared recorder samples what a fresh
        one with the same seed would.  ``seq`` keeps counting, and the
        sink is untouched."""
        self.sampled = 0
        self._rng.seed(self._seed)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush the sink's buffers to disk (no-op without a sink)."""
        if self._sink is not None:
            with self._sink_lock:
                self._sink.flush()

    def close(self) -> None:
        """Flush and close an owned sink file."""
        if self._sink is not None:
            with self._sink_lock:
                self._sink.flush()
                if self._sink_owned:
                    self._sink.close()
                self._sink = None


def read_qlog(path_or_lines: Union[str, List[str]]) -> List[Dict[str, Any]]:
    """Parse a ``parapll-qlog/1`` capture back into record dicts.

    Accepts a raw sink file or a capture with a ``parapll-qlog/1``
    header first.  Blank lines are skipped.

    Raises:
        ObsError: naming the file and line of a header from another
            schema or of a line that is not a JSON object, or the
            record that lacks an integer ``s`` or ``t``.
    """
    records = _flightrec.read_dump(path_or_lines, QLOG_SCHEMA)[1]
    for n, rec in enumerate(records, 1):
        if not all(isinstance(rec.get(k), int) for k in ("s", "t")):
            name = (
                path_or_lines if isinstance(path_or_lines, str) else "<lines>"
            )
            raise ObsError(f"{name}: record {n} has no integer s and t")
    return records


# ----------------------------------------------------------------------
# Module-level installation (what the oracle and server see)
# ----------------------------------------------------------------------
_active: Optional[QueryLogRecorder] = None

#: Server-request correlation: the handler thread parks the req_id here
#: so oracle-level records can carry it without any API plumbing.
_request = threading.local()


def active() -> Optional[QueryLogRecorder]:
    """The currently installed recorder, or ``None``."""
    return _active


def install(recorder: QueryLogRecorder) -> QueryLogRecorder:
    """Install *recorder* as the process-wide query-log recorder."""
    global _active
    _active = recorder
    return recorder


def uninstall() -> None:
    """Remove the installed recorder (no-op when none is installed)."""
    global _active
    _active = None


@contextmanager
def recording(recorder: QueryLogRecorder) -> Iterator[QueryLogRecorder]:
    """Install *recorder* for the block, then flush its sink.

    The previously installed recorder (if any) is restored on exit.
    """
    global _active
    previous = _active
    _active = recorder
    try:
        yield recorder
    finally:
        _active = previous
        recorder.flush()


@contextmanager
def request_scope(req_id: Optional[int]) -> Iterator[None]:
    """Attach *req_id* to qlog records made by this thread's dispatch."""
    previous = getattr(_request, "req_id", None)
    _request.req_id = req_id
    try:
        yield
    finally:
        _request.req_id = previous


def current_req_id() -> Optional[int]:
    """The server req_id attached to this thread, or ``None``."""
    return getattr(_request, "req_id", None)


def record_query(
    op: str,
    s: int,
    t: int,
    latency_us: float,
    cache_hit: bool = False,
    entries_scanned: int = 0,
    outcome: str = "ok",
    req_id: Optional[int] = None,
) -> None:
    """Record one query to the installed recorder, sampling applied.

    This is the serve-path hook; it costs one global load when no
    recorder is installed.  *req_id* defaults to the handler thread's
    :func:`request_scope` value.
    """
    recorder = _active
    if recorder is not None and recorder.should_sample():
        recorder.record(
            op,
            s,
            t,
            latency_us,
            cache_hit=cache_hit,
            entries_scanned=entries_scanned,
            outcome=outcome,
            req_id=req_id if req_id is not None else current_req_id(),
        )
