"""The flight recorder: last-N structured events, dumped on failure.

Metrics answer "how much"; traces answer "where did the time go" when
someone turned tracing on *before* the run.  The flight recorder
answers the post-mortem question — *what was this process doing right
before it died* — without any opt-in: a per-process ring buffer of the
last :data:`DEFAULT_CAPACITY` structured events (task grabs, label
commits, sync rounds, slow queries, failures) that instrumented code
appends to unconditionally, and that gets dumped to JSONL when things
go wrong.

The ring is the process's only event buffer.  With tracing on,
:mod:`repro.obs.trace` appends spans and instant events to it as well
(:meth:`FlightRecorder.record_trace`), so a failure dump, the
telemetry relay and ``parapll timeline`` all read one stream.  A
:class:`~repro.obs.relay.RelayClient` reads the ring through a
:class:`RingCursor`, which ships each event once and counts every event
evicted before it was read.

Dump triggers:

* worker failures in :func:`repro.parallel.threads.build_parallel_threads`
  and rank failures in :func:`repro.cluster.threadcomm.run_ranks`
  (via :func:`auto_dump`, honouring ``PARAPLL_FLIGHTREC_DIR``);
* ``SIGUSR1``, after :func:`install_signal_handler`;
* on demand: the server's ``debug`` op and ``parapll flightrec dump``.

Lock-freedom matters here: the recorder is written from worker threads,
exception handlers and a signal handler, so :meth:`FlightRecorder.record`
uses only GIL-atomic operations (``deque.append`` with ``maxlen``, an
``itertools.count`` sequence) — it can never deadlock the thread it is
observing.

Dump format (``parapll-flightrec/1``): one JSON object per line.  The
first line is a header ``{"kind": "header", "schema":
"parapll-flightrec/1", "pid", "reason", "capacity", "events",
"dumped_at"}``; every following line is one event ``{"seq", "ts",
"mono", "kind", "thread", "attrs"}``, oldest first (``seq`` is a
process-wide monotone sequence number, ``ts`` unix seconds, ``mono``
the monotonic clock); tracing events add ``parent_id``, spans add
``span_id`` and ``dur``.  Every ``parapll-*/1`` JSONL dump has this
shape and goes through :func:`write_dump` and :func:`read_dump`.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
from collections import deque
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.metrics import ObsError

__all__ = [
    "FLIGHTREC_SCHEMA",
    "DEFAULT_CAPACITY",
    "RING_CAPACITY",
    "ENV_DIR",
    "FlightRecorder",
    "RingCursor",
    "get_recorder",
    "record",
    "reserve_for_build",
    "auto_dump",
    "dump_events",
    "write_text",
    "write_dump",
    "read_dump",
    "install_signal_handler",
]

FLIGHTREC_SCHEMA = "parapll-flightrec/1"
DEFAULT_CAPACITY = 512

#: Ring size of a traced or relayed process (tracing and an attaching
#: relay grow the ring to at least this).
RING_CAPACITY = 4096

#: Ring events a traced build records per root: ``task_grab``, the
#: ``root_search`` span and ``label_commit``.
EVENTS_PER_ROOT = 3

#: Directory for automatic failure dumps; auto-dumping is disabled when
#: the variable is unset (the in-memory buffer stays queryable).
ENV_DIR = "PARAPLL_FLIGHTREC_DIR"

logger = logging.getLogger("repro.obs.flightrec")


class FlightRecorder:
    """A bounded ring buffer of structured events.

    Args:
        capacity: how many events to retain (oldest evicted first).

    Thread- and signal-safe by construction: appends use only
    GIL-atomic operations, no locks.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: deque = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self._cleared_through = 0

    @property
    def capacity(self) -> int:
        """Ring-buffer size."""
        return self._events.maxlen or 0

    def set_capacity(self, capacity: int) -> None:
        """Resize the buffer, keeping the newest events."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if capacity != self.capacity:
            self._events = deque(self._events, maxlen=capacity)

    def reserve(self, capacity: int) -> None:
        """Grow the buffer to at least *capacity* (never shrinks it)."""
        if capacity > self.capacity:
            self.set_capacity(capacity)

    # ------------------------------------------------------------------
    def record(self, kind: str, **attrs: Any) -> None:
        """Append one event; *attrs* must be JSON-safe."""
        self._events.append(
            {
                "seq": next(self._seq),
                "ts": time.time(),
                "mono": time.monotonic(),
                "kind": kind,
                "thread": threading.current_thread().name,
                "attrs": attrs,
            }
        )

    def record_trace(
        self,
        kind: str,
        attrs: Dict[str, Any],
        parent_id: Optional[int],
        span_id: Optional[int] = None,
        start: float = 0.0,
    ) -> None:
        """Append an instant under span *parent_id* or, with *span_id*,
        a span closing now that opened at monotonic *start*."""
        mono = time.monotonic()
        event = {
            "seq": next(self._seq),
            "ts": time.time(),
            "mono": mono,
            "kind": kind,
            "thread": threading.current_thread().name,
            "attrs": attrs,
            "parent_id": parent_id,
        }
        if span_id is not None:
            event.update(span_id=span_id, dur=mono - start)
        self._events.append(event)

    def snapshot(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """A copy of the buffered events, oldest first.

        Args:
            last: return only the newest *last* events when given.
        """
        events = list(self._events)
        if last is not None and last >= 0:
            events = events[-last:] if last else []
        return events

    def clear(self) -> None:
        """Drop all buffered events (``seq`` keeps counting)."""
        self._cleared_through = self.last_seq
        self._events.clear()

    @property
    def last_seq(self) -> int:
        """The highest ``seq`` recorded so far (0 before any event)."""
        return max(
            (e["seq"] for e in list(self._events)),
            default=self._cleared_through,
        )

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    def dump(
        self,
        path_or_file: Union[str, os.PathLike, IO[str]],
        reason: str = "manual",
    ) -> int:
        """Write header + events as JSONL; returns the event count."""
        return dump_events(
            self.snapshot(),
            path_or_file,
            reason=reason,
            pid=os.getpid(),
            capacity=self.capacity,
        )


class RingCursor:
    """Reads a recorder's events exactly once, counting those it missed.

    The cursor starts after the newest event recorded so far.  Each
    :meth:`read` returns the events not read before; events evicted
    from the ring before a read saw them add to :attr:`dropped`, so
    events read plus ``dropped`` always equals events recorded.

    ``seq`` is drawn just before the append, so two threads can land in
    the ring out of ``seq`` order.  The cursor therefore keeps the
    lowest seq it has not accounted for plus the set of higher seqs
    already read, rather than a single high-water mark.
    """

    def __init__(self, recorder: FlightRecorder) -> None:
        self._recorder = recorder
        self._next = recorder.last_seq + 1
        self._read: set = set()
        #: Events evicted before any read saw them (cumulative).
        self.dropped = 0

    def read(self) -> List[Dict[str, Any]]:
        """Events not read before, in ring order."""
        events = self._recorder.snapshot()
        if not events:
            return []
        oldest = min(e["seq"] for e in events)
        if oldest > self._next:
            # Every seq below the oldest retained one is gone for good.
            seen = {s for s in self._read if s < oldest}
            self.dropped += oldest - self._next - len(seen)
            self._read -= seen
            self._next = oldest
        fresh = [
            e
            for e in events
            if e["seq"] >= self._next and e["seq"] not in self._read
        ]
        self._read.update(e["seq"] for e in fresh)
        while self._next in self._read:
            self._read.remove(self._next)
            self._next += 1
        return fresh


def write_text(
    path_or_file: Union[str, os.PathLike, IO[str]], text: str
) -> None:
    """Write *text* to an open file object or to a path."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)  # type: ignore[union-attr]
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
            fh.write(text)


def write_dump(
    path_or_file: Union[str, os.PathLike, IO[str]],
    schema: str,
    records: List[Dict[str, Any]],
    **fields: Any,
) -> int:
    """Write a ``parapll-*/1`` dump: a header line, then one record per
    line; returns the record count.

    The header is ``{"kind": "header", "schema": schema, **fields,
    "events": len(records), "dumped_at": <unix seconds>}``.
    """
    header = {"kind": "header", "schema": schema, **fields}
    header.update(events=len(records), dumped_at=time.time())
    lines = [json.dumps(header)]
    lines.extend(json.dumps(rec) for rec in records)
    write_text(path_or_file, "\n".join(lines) + "\n")
    return len(records)


def read_dump(
    path_or_lines: Union[str, Iterable[str]], schema: str
) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """Parse a ``parapll-*/1`` dump into ``(header, records)``.

    The header is optional (a raw qlog sink has none; *header* is then
    ``None``); when present its schema must be *schema*.  Blank lines
    are skipped; every other line must be a JSON object.

    Raises:
        ObsError: naming the file and line of a line that is not JSON,
            not an object, or a header of another schema.
    """
    if isinstance(path_or_lines, str):
        name = path_or_lines
        with open(path_or_lines, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        name = "<lines>"
        lines = list(path_or_lines)
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ObsError(f"{name}:{lineno}: not JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ObsError(f"{name}:{lineno}: not a JSON object")
        if doc.get("kind") != "header":
            records.append(doc)
        elif doc.get("schema") != schema:
            raise ObsError(
                f"{name}:{lineno}: header schema {doc.get('schema')!r}, "
                f"expected {schema!r}"
            )
        elif header is None:
            header = doc
    return header, records


def dump_events(
    events: List[Dict[str, Any]],
    path_or_file: Union[str, os.PathLike, IO[str]],
    reason: str = "manual",
    pid: Optional[int] = None,
    capacity: Optional[int] = None,
) -> int:
    """Write any event list as a ``parapll-flightrec/1`` dump.

    Used by :meth:`FlightRecorder.dump` and by ``parapll flightrec
    dump`` when the events came over the wire from another process's
    recorder (the server's ``debug`` op).
    """
    return write_dump(
        path_or_file,
        FLIGHTREC_SCHEMA,
        events,
        pid=pid,
        reason=reason,
        capacity=capacity,
    )


_global_recorder = FlightRecorder()
_dump_ids = itertools.count(1)


def get_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _global_recorder


def record(kind: str, **attrs: Any) -> None:
    """Append one event to the process-wide recorder."""
    _global_recorder.record(kind, **attrs)


def reserve_for_build(roots: int) -> None:
    """Grow the process ring so a traced build of *roots* roots keeps
    every per-root event, with :data:`RING_CAPACITY` left for the rest."""
    _global_recorder.reserve(RING_CAPACITY + EVENTS_PER_ROOT * roots)


def auto_dump(
    reason: str, directory: Optional[str] = None
) -> Optional[str]:
    """Dump the recorder on a failure path; returns the path written.

    The target directory is *directory* or ``$PARAPLL_FLIGHTREC_DIR``;
    when neither is set the dump is skipped (returns ``None``) so
    library users never find surprise files in their working tree.
    Write errors are logged, never raised — a dump must not mask the
    failure that triggered it.
    """
    directory = directory or os.environ.get(ENV_DIR)
    if not directory:
        return None
    path = os.path.join(
        directory,
        f"flightrec-{os.getpid()}-{reason}-{next(_dump_ids)}.jsonl",
    )
    try:
        os.makedirs(directory, exist_ok=True)
        _global_recorder.dump(path, reason=reason)
    except OSError as exc:
        logger.warning("flight-recorder dump to %s failed: %s", path, exc)
        return None
    return path


def install_signal_handler(signum: Optional[int] = None) -> bool:
    """Dump the recorder on ``SIGUSR1`` (or *signum*); returns success.

    The dump goes to ``$PARAPLL_FLIGHTREC_DIR``, falling back to the
    current working directory.  Returns ``False`` on platforms without
    the signal or outside the main thread (where CPython forbids
    ``signal.signal``).
    """
    import signal as _signal

    if signum is None:
        signum = getattr(_signal, "SIGUSR1", None)
        if signum is None:  # pragma: no cover - windows
            return False

    def _handler(_signum: int, _frame: Any) -> None:
        path = auto_dump(
            "sigusr1", directory=os.environ.get(ENV_DIR) or os.getcwd()
        )
        if path:
            logger.info("flight recorder dumped to %s", path)

    try:
        _signal.signal(signum, _handler)
    except ValueError:  # pragma: no cover - non-main thread
        return False
    return True
