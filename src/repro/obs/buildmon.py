"""The build monitor: live per-root telemetry while an index is built.

The query path has EXPLAIN, tracing and the flight recorder; the build
path — where the paper's actual claims live (pruning power, the
Figure-6 label skew, static-vs-dynamic balance) — had nothing between
"build started" and "build finished".  :class:`BuildMonitor` fills that
gap: builders report every committed root (with its
:class:`~repro.types.SearchStats`) and the monitor turns the stream
into periodic progress snapshots:

* ``roots_done`` / ``total_roots`` and the completion fraction;
* throughput (roots/sec, labels/sec over the whole run) and an ETA
  extrapolated from the remaining root count;
* the pruning-effectiveness split — of all settled vertices, how many
  were pruned by the 2-hop-cover test vs. turned into label entries —
  which is the live version of the paper's pruning-power argument;
* per-worker activity and **stall detection**: a worker that has not
  committed a root for ``stall_seconds`` while others make progress is
  flagged (a deadlocked rank, a root stuck on a pathological search).

Snapshots are emitted on a sampling schedule (every ``sample_every``
roots and/or every ``interval_seconds`` of wall time — sampling, not
per-root emission, is what keeps the monitor's overhead under the <5 %
``build_serial`` budget gated by the ``hook_overhead`` perf workload).
Each emitted snapshot goes three places at once:

* the monitor's own event list, exportable as ``parapll-buildmon/1``
  JSONL via :meth:`BuildMonitor.write_jsonl`;
* the process-wide flight recorder (kind ``build_progress``), so a
  worker/rank failure dump includes the last N build-progress frames
  and a telemetry relay ships them to the fleet dashboard;
* the metrics registry gauges (``parapll_buildmon_*``), so a scrape of
  a building process shows live progress.

Builders do not take a monitor parameter: they call
:func:`report_root`, which is a no-op (one global load) unless a
monitor has been installed with :func:`install` / :func:`monitored`.
That keeps the hot loops free of plumbing and the disabled cost at one
``is None`` test per root::

    from repro.obs import buildmon

    monitor = buildmon.BuildMonitor(total_roots=graph.num_vertices)
    with buildmon.monitored(monitor):
        build_parallel_threads(graph, 4)
    monitor.write_jsonl("build-progress.jsonl")
    print(monitor.render())
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.obs import config as _config
from repro.obs import flightrec as _flightrec
from repro.types import SearchStats

__all__ = [
    "BUILDMON_SCHEMA",
    "BuildMonitor",
    "active",
    "install",
    "uninstall",
    "monitored",
    "report_root",
    "report_note",
]

BUILDMON_SCHEMA = "parapll-buildmon/1"

#: A worker with no commit for this long (while the build is live) is
#: reported as stalled.
DEFAULT_STALL_SECONDS = 30.0


class BuildMonitor:
    """Aggregates per-root build telemetry into progress snapshots.

    Args:
        total_roots: expected root count (enables fraction + ETA);
            ``None`` when unknown (e.g. an open-ended dynamic build).
        sample_every: emit a snapshot every N committed roots
            (``None`` disables count-based sampling).
        interval_seconds: emit a snapshot when at least this much wall
            time passed since the last one (``None`` disables
            time-based sampling).  With both samplers disabled only
            :meth:`finish` and explicit :meth:`emit` calls produce
            events.
        stall_seconds: inactivity threshold for stall detection.
        keep_per_root: retain one :class:`SearchStats` per committed
            root (in commit order) on :attr:`per_root` — the input the
            Figure-6 CDF (:func:`repro.core.stats.label_cdf`) needs.
        sink: optional callback invoked with each emitted snapshot
            dict (the live ``parapll index --progress`` renderer).
        clock: monotonic clock override (tests inject a fake).

    Thread safety: :meth:`root_done` takes a small internal lock, so
    one monitor can be shared by all worker threads of a build.
    """

    def __init__(
        self,
        total_roots: Optional[int] = None,
        sample_every: Optional[int] = None,
        interval_seconds: Optional[float] = 0.5,
        stall_seconds: float = DEFAULT_STALL_SECONDS,
        keep_per_root: bool = True,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total_roots is not None and total_roots < 0:
            raise ValueError("total_roots must be non-negative")
        if sample_every is not None and sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if interval_seconds is not None and interval_seconds < 0:
            raise ValueError("interval_seconds must be non-negative")
        if stall_seconds <= 0:
            raise ValueError("stall_seconds must be positive")
        self.total_roots = total_roots
        self.sample_every = sample_every
        self.interval_seconds = interval_seconds
        self.stall_seconds = stall_seconds
        self.keep_per_root = keep_per_root
        self.sink = sink
        self._clock = clock
        self._lock = threading.Lock()

        self._started = self._clock()
        self._finished: Optional[float] = None
        self.roots_done = 0
        self.labels_total = 0
        self.settled_total = 0
        self.pruned_total = 0
        #: One SearchStats per committed root, in commit order.
        self.per_root: List[SearchStats] = []
        #: worker id -> (roots committed, last-commit monotonic time).
        self._workers: Dict[int, List[float]] = {}
        self._stalled: set = set()
        self._last_emit = self._started
        self._last_emit_roots = 0
        self._seq = 0
        #: Emitted events, oldest first (``build_progress`` snapshots
        #: plus any :meth:`note` annotations).
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Reporting (builders call these)
    # ------------------------------------------------------------------
    def root_done(
        self,
        worker: int,
        root: int,
        stats: Optional[SearchStats] = None,
        labels: int = 0,
    ) -> None:
        """Record one committed root search.

        Args:
            worker: worker/rank id that committed the root.
            root: the root vertex.
            stats: the search's counters; when given, ``labels`` is
                taken from ``stats.labels_added``.
            labels: label entries committed (used when *stats* is
                ``None``).
        """
        now = self._clock()
        with self._lock:
            self.roots_done += 1
            if stats is not None:
                self.labels_total += stats.labels_added
                self.settled_total += stats.settled
                self.pruned_total += stats.pruned
                if self.keep_per_root:
                    self.per_root.append(stats)
            else:
                self.labels_total += labels
            entry = self._workers.setdefault(worker, [0, now])
            entry[0] += 1
            entry[1] = now
            self._stalled.discard(worker)
            due = False
            if self.sample_every is not None:
                due = self.roots_done - self._last_emit_roots >= self.sample_every
            if not due and self.interval_seconds is not None:
                due = now - self._last_emit >= self.interval_seconds
            if not due and (
                self.total_roots is not None
                and self.roots_done >= self.total_roots
            ):
                due = True
            if due:
                self._emit_locked(now)

    def note(self, kind: str, **attrs: Any) -> None:
        """Record an auxiliary build event (sync round, failure, ...).

        The event lands in the monitor's JSONL export alongside the
        ``build_progress`` snapshots; *attrs* must be JSON-safe.
        """
        now = self._clock()
        with self._lock:
            self._seq += 1
            self.events.append(
                {
                    "seq": self._seq,
                    "ts": time.time(),
                    "mono": now,
                    "kind": kind,
                    "attrs": dict(attrs),
                }
            )

    def finish(self) -> Dict[str, Any]:
        """Emit a final snapshot and freeze the rates; returns it."""
        now = self._clock()
        with self._lock:
            if self._finished is None:
                self._finished = now
            return self._emit_locked(now, final=True)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The current progress state as a JSON-safe dict (no emit)."""
        with self._lock:
            return self._snapshot_locked(self._clock())

    def _snapshot_locked(self, now: float, final: bool = False) -> Dict[str, Any]:
        end = self._finished if self._finished is not None else now
        elapsed = max(end - self._started, 0.0)
        roots_per_second = self.roots_done / elapsed if elapsed > 0 else 0.0
        labels_per_second = self.labels_total / elapsed if elapsed > 0 else 0.0
        remaining = (
            max(self.total_roots - self.roots_done, 0)
            if self.total_roots is not None
            else None
        )
        eta = (
            remaining / roots_per_second
            if remaining is not None and roots_per_second > 0
            else None
        )
        settled = self.settled_total
        stalled = sorted(self._stalled_locked(now)) if not final else []
        return {
            "kind": "build_progress",
            "roots_done": self.roots_done,
            "total_roots": self.total_roots,
            "fraction_done": (
                self.roots_done / self.total_roots
                if self.total_roots
                else None
            ),
            "labels_total": self.labels_total,
            "settled_total": settled,
            "pruned_total": self.pruned_total,
            # Of everything settled, the share discarded by the prune
            # test vs. turned into label entries (the live pruning-
            # effectiveness ratio; both 0.0 before any stats arrive).
            "prune_ratio": self.pruned_total / settled if settled else 0.0,
            "label_ratio": (
                (settled - self.pruned_total) / settled if settled else 0.0
            ),
            "elapsed_seconds": elapsed,
            "roots_per_second": roots_per_second,
            "labels_per_second": labels_per_second,
            "eta_seconds": eta,
            "workers": {
                str(w): {"roots": int(c), "idle_seconds": max(now - last, 0.0)}
                for w, (c, last) in sorted(self._workers.items())
            },
            "stalled_workers": stalled,
            "final": bool(final or self._finished is not None),
        }

    def _stalled_locked(self, now: float) -> List[int]:
        """Workers inactive for >= stall_seconds while others commit."""
        if len(self._workers) < 2:
            return []
        stalled = [
            w
            for w, (_c, last) in self._workers.items()
            if now - last >= self.stall_seconds
        ]
        # Everyone idle means the build is (probably) over, not stuck.
        if len(stalled) == len(self._workers):
            return []
        return stalled

    def _emit_locked(self, now: float, final: bool = False) -> Dict[str, Any]:
        snap = self._snapshot_locked(now, final=final)
        self._seq += 1
        event = {
            "seq": self._seq,
            "ts": time.time(),
            "mono": now,
            "kind": "build_progress",
            "attrs": {k: v for k, v in snap.items() if k != "kind"},
        }
        self.events.append(event)
        self._last_emit = now
        self._last_emit_roots = self.roots_done
        newly_stalled = set(snap["stalled_workers"]) - self._stalled
        self._stalled = set(snap["stalled_workers"])
        # Feed the flight recorder (always-on ring) and the metrics
        # registry so failure dumps and scrapes see build progress.
        _flightrec.record(
            "build_progress",
            roots_done=snap["roots_done"],
            total_roots=snap["total_roots"],
            labels_total=snap["labels_total"],
            labels_per_second=round(snap["labels_per_second"], 3),
            roots_per_second=round(snap["roots_per_second"], 3),
            prune_ratio=round(snap["prune_ratio"], 4),
            eta_seconds=(
                round(snap["eta_seconds"], 3)
                if snap["eta_seconds"] is not None
                else None
            ),
            stalled_workers=snap["stalled_workers"],
            final=snap["final"],
        )
        for worker in sorted(newly_stalled):
            _flightrec.record(
                "worker_stall",
                worker=worker,
                idle_seconds=snap["workers"][str(worker)]["idle_seconds"],
            )
        if _config.METRICS:
            from repro.obs.instruments import record_build_progress

            record_build_progress(
                snap["roots_done"],
                snap["labels_total"],
                snap["eta_seconds"],
            )
        if self.sink is not None:
            self.sink(snap)
        return snap

    # ------------------------------------------------------------------
    # Export / rendering
    # ------------------------------------------------------------------
    def write_jsonl(
        self, path_or_file: Union[str, os.PathLike, IO[str]]
    ) -> int:
        """Write header + events as ``parapll-buildmon/1`` JSONL.

        Returns:
            The number of events written (header excluded).
        """
        with self._lock:
            events = list(self.events)
        return _flightrec.write_dump(
            path_or_file,
            BUILDMON_SCHEMA,
            events,
            pid=os.getpid(),
            total_roots=self.total_roots,
        )

    def render(self, snapshot: Optional[Dict[str, Any]] = None) -> str:
        """One ``parapll top``-style text frame of the build."""
        snap = snapshot if snapshot is not None else self.snapshot()
        total = snap["total_roots"]
        frac = snap["fraction_done"]
        progress = (
            f"{snap['roots_done']}/{total} roots ({frac:.1%})"
            if total
            else f"{snap['roots_done']} roots"
        )
        eta = snap["eta_seconds"]
        lines = [
            "parapll build",
            "=============",
            f"progress   {progress}",
            f"labels     {snap['labels_total']} entries "
            f"({snap['labels_per_second']:.0f}/s)",
            f"pruning    {snap['prune_ratio']:.1%} pruned / "
            f"{snap['label_ratio']:.1%} labeled of "
            f"{snap['settled_total']} settled",
            f"elapsed    {snap['elapsed_seconds']:.1f} s"
            + (f"    eta {eta:.1f} s" if eta is not None else ""),
        ]
        workers = snap.get("workers") or {}
        if workers:
            parts = []
            for w, info in workers.items():
                mark = "!" if int(w) in set(snap["stalled_workers"]) else ""
                parts.append(f"w{w}{mark}:{info['roots']}")
            lines.append("workers    " + "  ".join(parts))
        if snap["stalled_workers"]:
            lines.append(
                "STALLED    worker(s) "
                + ", ".join(str(w) for w in snap["stalled_workers"])
                + f" idle >= {self.stall_seconds:.0f}s"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Module-level installation (what the builders see)
# ----------------------------------------------------------------------
_active: Optional[BuildMonitor] = None


def active() -> Optional[BuildMonitor]:
    """The currently installed monitor, or ``None``."""
    return _active


def install(monitor: BuildMonitor) -> BuildMonitor:
    """Install *monitor* as the process-wide build monitor."""
    global _active
    _active = monitor
    return monitor


def uninstall() -> None:
    """Remove the installed monitor (no-op when none is installed)."""
    global _active
    _active = None


@contextmanager
def monitored(monitor: BuildMonitor) -> Iterator[BuildMonitor]:
    """Install *monitor* for the duration of the block, then finish it.

    The previously installed monitor (if any) is restored on exit, so
    nested scopes compose.
    """
    global _active
    previous = _active
    _active = monitor
    try:
        yield monitor
    finally:
        _active = previous
        monitor.finish()


def report_root(
    worker: int,
    root: int,
    stats: Optional[SearchStats] = None,
    labels: int = 0,
) -> None:
    """Report one committed root to the installed monitor (if any).

    This is the builders' hook; it costs one global load when no
    monitor is installed.
    """
    monitor = _active
    if monitor is not None:
        monitor.root_done(worker, root, stats=stats, labels=labels)


def report_note(kind: str, **attrs: Any) -> None:
    """Report an auxiliary build event to the installed monitor."""
    monitor = _active
    if monitor is not None:
        monitor.note(kind, **attrs)
