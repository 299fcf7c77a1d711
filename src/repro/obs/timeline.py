"""Timeline export and critical-path analysis of flight events.

Two consumers of the same event stream — the flight recorder's ring
(:mod:`repro.obs.flightrec`), a ``parapll-flightrec/1`` dump of it, or
a collector's merged fleet events:

* :func:`chrome_trace` converts it into the Chrome Trace Event Format
  (the ``{"traceEvents": [...]}`` JSON that Perfetto and
  ``chrome://tracing`` load), one track per worker thread or simulated
  core.  Real and simulated events share one schema but run on
  different clocks, so they are separated into two trace *processes*
  (``pid`` 1 = wall clock, ``pid`` 2 = simulated seconds) and each
  process's timestamps are rebased to its own origin.

* :func:`analyze_critical_path` reduces the same events to the
  quantities that explain a parallel build's makespan: per-worker
  busy / lock-wait / idle fractions, the longest dependency chain of
  tasks (walking span parentage and commit ordering backwards from the
  last task to finish), and the top-k slowest root searches.

Task extraction understands both event shapes the builders emit:
spans (events with ``dur``, wall clock, ``mono`` at their end, nested
via ``parent_id``) and the simulator's ``root_search`` events (with
``start`` / ``finish`` / ``worker`` attributes and ``clock == "sim"``).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs import flightrec as _flightrec

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "TimelineTask",
    "LaneBreakdown",
    "CriticalPathReport",
    "analyze_critical_path",
    "render_critical_path",
]

#: Trace "process" ids for the two clock domains.
PID_WALL = 1
PID_SIM = 2

_US = 1_000_000.0  # seconds -> microseconds

Event = Dict[str, Any]


def _is_sim(event: Event) -> bool:
    return event["attrs"].get("clock") == "sim"


def _extent(event: Event) -> Optional[Tuple[float, float]]:
    """(start, end) seconds of a span or a simulator task event, on its
    own clock domain; ``None`` for an instant."""
    attrs = event["attrs"]
    if event.get("dur") is not None:
        end = float(event["mono"])
        return end - float(event["dur"]), end
    if "start" not in attrs:
        return None
    end = float(attrs.get("ts", 0.0))
    start = float(attrs["start"])
    if "finish" in attrs:
        end = float(attrs["finish"])
    return min(start, end), max(start, end)


def _instant(event: Event) -> float:
    """When an instant happened, on its own clock domain."""
    if _is_sim(event) and "ts" in event["attrs"]:
        return float(event["attrs"]["ts"])
    return float(event.get("mono", 0.0))


@dataclass
class TimelineTask:
    """One unit of timed work on one lane (worker thread / virtual core).

    Attributes:
        name: event kind (``"root_search"``, ``"cluster_sync"``, ...).
        lane: display lane, e.g. ``"worker 3"`` or a thread name.
        start: start time, seconds (domain clock).
        end: end time, seconds.
        lock_wait: seconds of the task spent waiting for the commit
            lock (0 when the producer did not record it).
        sim: whether the timestamps are simulated seconds.
        span_id: the span's id (``None`` for a simulator event).
        parent_id: enclosing span id, if any.
        attrs: the event's attributes (shared, do not mutate).
    """

    name: str
    lane: str
    start: float
    end: float
    lock_wait: float = 0.0
    sim: bool = False
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Task length in seconds."""
        return self.end - self.start


def _lane_of(event: Event) -> str:
    worker = event["attrs"].get("worker")
    if worker is not None:
        return f"worker {worker}"
    return event.get("thread") or "main"


def _default_events(events: Optional[Iterable[Event]]) -> List[Event]:
    if events is None:
        return _flightrec.get_recorder().snapshot()
    return list(events)


def extract_tasks(events: Iterable[Event]) -> List[TimelineTask]:
    """Normalise flight events into :class:`TimelineTask` intervals.

    Spans become tasks directly; simulator events carrying
    ``start``/``finish`` attributes (the sim's task-completion marks)
    become tasks on their virtual worker's lane.  Instant events without
    an extent are skipped — they have no duration to account.
    """
    tasks: List[TimelineTask] = []
    for ev in events:
        extent = _extent(ev)
        if extent is None:
            continue
        attrs = ev["attrs"]
        tasks.append(
            TimelineTask(
                name=ev["kind"],
                lane=_lane_of(ev),
                start=extent[0],
                end=extent[1],
                lock_wait=float(attrs.get("lock_wait", 0.0)),
                sim=_is_sim(ev),
                span_id=ev.get("span_id"),
                parent_id=ev.get("parent_id"),
                attrs=attrs,
            )
        )
    return tasks


# ----------------------------------------------------------------------
# Chrome Trace Event Format
# ----------------------------------------------------------------------
def chrome_trace(events: Optional[Iterable[Event]] = None) -> Dict[str, Any]:
    """Convert flight events to a Chrome Trace Event Format document.

    Defaults to the flight recorder's ring.  The result is a JSON-safe
    dict with ``traceEvents`` sorted by timestamp: complete (``"X"``)
    events for everything with an extent, instant (``"i"``) events for
    point marks, plus ``"M"`` metadata naming the processes (wall / sim
    clock domains) and per-lane threads.  Timestamps and durations are
    microseconds, rebased per clock domain so both start near 0.
    """
    events = _default_events(events)
    extents = [_extent(ev) for ev in events]

    # Rebase each clock domain to its own earliest timestamp.
    origins: Dict[int, float] = {}
    for ev, extent in zip(events, extents):
        pid = PID_SIM if _is_sim(ev) else PID_WALL
        ts = extent[0] if extent is not None else _instant(ev)
        origins[pid] = min(origins.get(pid, ts), ts)

    # Stable lane -> tid assignment per process, in first-seen order.
    tids: Dict[Tuple[int, str], int] = {}

    def tid_for(pid: int, lane: str) -> int:
        key = (pid, lane)
        if key not in tids:
            tids[key] = sum(1 for p, _l in tids if p == pid)
        return tids[key]

    out: List[Dict[str, Any]] = []
    # Cross-rank message stitching: comm_send ("flow": "out") and
    # comm_recv ("flow": "in") events sharing a flow_id become a
    # Chrome flow-event arrow from the send point to the recv point.
    flow_sends: Dict[str, Tuple[int, int, float]] = {}
    flow_recvs: List[Tuple[str, int, int, float, int]] = []
    for ev, extent in zip(events, extents):
        attrs = ev["attrs"]
        pid = PID_SIM if _is_sim(ev) else PID_WALL
        tid = tid_for(pid, _lane_of(ev))
        args = {
            k: v
            for k, v in attrs.items()
            if isinstance(v, (str, int, float, bool)) or v is None
        }
        for key in ("span_id", "parent_id"):
            if ev.get(key) is not None:
                args[key] = ev[key]
        if extent is not None:
            ts, dur = extent[0], extent[1] - extent[0]
            ph = "X"
        else:
            ts, dur = _instant(ev), 0.0
            ph = "i"
        item: Dict[str, Any] = {
            "name": ev["kind"],
            "ph": ph,
            "ts": round((ts - origins[pid]) * _US, 3),
            "dur": round(dur * _US, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if ph == "i":
            item["s"] = "t"  # thread-scoped instant
        out.append(item)
        flow = attrs.get("flow")
        flow_id = attrs.get("flow_id")
        if flow_id is not None:
            if flow == "out":
                flow_sends[flow_id] = (pid, tid, item["ts"])
            elif flow == "in":
                flow_recvs.append((flow_id, pid, tid, item["ts"], ev["seq"]))
    # Emit one flow arrow per delivered message.  Broadcast/allgather
    # sends fan out to several receivers, so the edge id is
    # flow_id + the receive event's seq (Chrome flow ids must be unique
    # per arrow).
    for flow_id, pid, tid, ts, seq in flow_recvs:
        send = flow_sends.get(flow_id)
        if send is None:
            continue
        s_pid, s_tid, s_ts = send
        arrow = {
            "name": "comm",
            "cat": "comm",
            "id": f"{flow_id}>{seq}",
            "dur": 0,
            "args": {"flow_id": flow_id},
        }
        out.append(dict(arrow, ph="s", ts=s_ts, pid=s_pid, tid=s_tid))
        out.append(
            dict(arrow, ph="f", bp="e", ts=max(ts, s_ts), pid=pid, tid=tid)
        )
    out.sort(key=lambda e: (e["pid"], e["ts"], e["tid"]))

    def meta(name: str, pid: int, tid: int, label: str) -> Dict[str, Any]:
        return {
            "name": name,
            "ph": "M",
            "ts": 0,
            "dur": 0,
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }

    names = {PID_WALL: "parapll (wall clock)", PID_SIM: "parapll (simulated)"}
    meta_events = [
        meta("process_name", pid, 0, names[pid])
        for pid in sorted({p for p, _l in tids})
    ]
    meta_events.extend(
        meta("thread_name", pid, tid, lane)
        for (pid, lane), tid in sorted(tids.items(), key=lambda kv: kv[1])
    )
    return {
        "traceEvents": meta_events + out,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.timeline", "schema": "chrome-trace/1"},
    }


def write_chrome_trace(
    path_or_file: Union[str, IO[str]],
    events: Optional[Iterable[Event]] = None,
) -> int:
    """Write a Chrome trace JSON file; returns the trace-event count."""
    doc = chrome_trace(events)
    _flightrec.write_text(path_or_file, json.dumps(doc, indent=1))
    return len(doc["traceEvents"])


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------
@dataclass
class LaneBreakdown:
    """Where one worker's share of the makespan went.

    ``busy + lock_wait + idle == 1`` (fractions of the makespan).
    """

    lane: str
    tasks: int
    busy_seconds: float
    lock_wait_seconds: float
    idle_seconds: float
    busy: float
    lock_wait: float
    idle: float


@dataclass
class CriticalPathReport:
    """The analysed timeline of one build.

    Attributes:
        makespan: window covered by the tasks, seconds.
        sim: whether the timestamps are simulated seconds.
        lanes: per-worker breakdowns, lane-name order.
        chain: the longest dependency chain, in execution order.
        chain_seconds: summed task time along the chain.
        chain_coverage: ``chain_seconds / makespan`` — how much of the
            end-to-end time the chain explains (1.0 means the makespan
            is fully serialised on this chain).
        slowest: the top-k slowest tasks, slowest first.
    """

    makespan: float
    sim: bool
    lanes: List[LaneBreakdown]
    chain: List[TimelineTask]
    chain_seconds: float
    chain_coverage: float
    slowest: List[TimelineTask]


def _dependency_chain(tasks: List[TimelineTask]) -> List[TimelineTask]:
    """The longest dependency chain, walked backwards from the end.

    The dependency structure is implicit: a task could not start before
    (a) its predecessor on the same lane finished, or (b) the task whose
    commit most recently preceded its start finished (the label store /
    commit-lock ordering, and span parentage for nested spans).  Walking
    from the last task to finish, each step picks the latest-finishing
    task that ended at or before the current task's start — preferring a
    same-lane predecessor on (near-)ties, and following ``parent_id``
    upward when the chain reaches the start of a nested span.
    """
    if not tasks:
        return []
    by_id = {t.span_id: t for t in tasks if t.span_id is not None}
    by_end = sorted(tasks, key=lambda t: t.end)
    ends = [t.end for t in by_end]
    current = max(tasks, key=lambda t: t.end)
    chain = [current]
    seen = {id(current)}
    eps = 1e-9
    while True:
        hi = bisect_right(ends, current.start + eps)
        nxt = None
        if hi > 0:
            best_end = ends[hi - 1]
            # Among the latest finishers (ties within eps), prefer the
            # same-lane predecessor; otherwise take any latest one.
            k = hi - 1
            while k >= 0 and ends[k] >= best_end - eps:
                cand = by_end[k]
                if id(cand) not in seen:
                    if nxt is None:
                        nxt = cand
                    if cand.lane == current.lane:
                        nxt = cand
                        break
                k -= 1
        if nxt is None:
            parent = (
                by_id.get(current.parent_id) if current.parent_id else None
            )
            if parent is not None and id(parent) not in seen:
                nxt = parent
            else:
                break
        chain.append(nxt)
        seen.add(id(nxt))
        current = nxt
    chain.reverse()
    return chain


def _drop_containers(tasks: List[TimelineTask]) -> List[TimelineTask]:
    """Filter out enclosing spans, keeping only leaf work items.

    A span is a container when another task nests under it via
    ``parent_id`` (serial builds: same-thread nesting), or when it is
    alone on its lane, covers essentially the whole makespan, and
    temporally encloses most other tasks (threaded builds: the
    whole-build span wraps every worker's root searches but is never
    their ``parent_id`` — span nesting is thread-local).  Counting a
    container as work would report its lane as 100% busy and hand it
    the critical path.  Ordinary tasks that merely overlap smaller
    tasks on other lanes are kept.
    """
    ids_with_children = {
        t.parent_id for t in tasks if t.parent_id is not None
    }
    lane_counts: Dict[str, int] = {}
    for t in tasks:
        lane_counts[t.lane] = lane_counts.get(t.lane, 0) + 1
    t0 = min(t.start for t in tasks)
    t1 = max(t.end for t in tasks)
    span_floor = 0.98 * (t1 - t0)
    by_start = sorted(tasks, key=lambda t: t.start)
    starts = [t.start for t in by_start]

    def is_container(t: TimelineTask) -> bool:
        if t.span_id in ids_with_children:
            return True
        if lane_counts[t.lane] != 1 or t.duration < span_floor:
            return False
        others = len(tasks) - 1
        if others == 0:
            return False
        lo = bisect_left(starts, t.start)
        hi = bisect_right(starts, t.end)
        enclosed = sum(
            1
            for other in by_start[lo:hi]
            if other is not t and other.end <= t.end
        )
        return 2 * enclosed >= others

    return [t for t in tasks if not is_container(t)]


def analyze_critical_path(
    events: Optional[Iterable[Event]] = None,
    top_k: int = 5,
    task_names: Optional[Iterable[str]] = None,
) -> CriticalPathReport:
    """Analyse flight events into a :class:`CriticalPathReport`.

    Args:
        events: flight events (defaults to the flight recorder's ring).
            When they hold both wall-clock and simulated events the
            simulated domain is analysed (it is the one with scheduling
            semantics; pre-filter the events to override).
        top_k: how many slowest tasks to report.
        task_names: restrict the analysis to these event kinds
            (default: every record with an extent, minus enclosing
            whole-build spans, which would otherwise count one lane as
            100% busy).

    Raises:
        ValueError: when the events contain no analysable tasks.
    """
    tasks = extract_tasks(_default_events(events))
    if any(t.sim for t in tasks):
        tasks = [t for t in tasks if t.sim]
    if task_names is not None:
        wanted = set(task_names)
        tasks = [t for t in tasks if t.name in wanted]
    elif tasks:
        tasks = _drop_containers(tasks)
    if not tasks:
        raise ValueError("no timed tasks in the events")

    t0 = min(t.start for t in tasks)
    t1 = max(t.end for t in tasks)
    makespan = max(t1 - t0, 1e-12)

    lanes: Dict[str, List[TimelineTask]] = {}
    for t in tasks:
        lanes.setdefault(t.lane, []).append(t)
    breakdowns = []
    for lane in sorted(lanes):
        lane_tasks = lanes[lane]
        lock = sum(min(t.lock_wait, t.duration) for t in lane_tasks)
        busy = sum(t.duration for t in lane_tasks) - lock
        idle = max(0.0, makespan - busy - lock)
        breakdowns.append(
            LaneBreakdown(
                lane=lane,
                tasks=len(lane_tasks),
                busy_seconds=busy,
                lock_wait_seconds=lock,
                idle_seconds=idle,
                busy=busy / makespan,
                lock_wait=lock / makespan,
                idle=idle / makespan,
            )
        )

    chain = _dependency_chain(tasks)
    chain_seconds = sum(t.duration for t in chain)
    slowest = sorted(tasks, key=lambda t: t.duration, reverse=True)[:top_k]
    return CriticalPathReport(
        makespan=makespan,
        sim=any(t.sim for t in tasks),
        lanes=breakdowns,
        chain=chain,
        chain_seconds=chain_seconds,
        chain_coverage=min(1.0, chain_seconds / makespan),
        slowest=slowest,
    )


def render_critical_path(report: CriticalPathReport) -> str:
    """Terminal-friendly rendering of a :class:`CriticalPathReport`."""
    unit = "sim-s" if report.sim else "s"
    lines = [
        "critical path",
        "=============",
        f"makespan {report.makespan:.4f}{unit}, longest chain "
        f"{len(report.chain)} tasks / {report.chain_seconds:.4f}{unit} "
        f"({report.chain_coverage:.0%} of makespan)",
        "per-worker breakdown (busy / lock-wait / idle):",
    ]
    for lane in report.lanes:
        lines.append(
            f"  {lane.lane:<12} {lane.tasks:5d} tasks  "
            f"{lane.busy:6.1%} / {lane.lock_wait:6.1%} / {lane.idle:6.1%}"
        )
    if report.slowest:
        lines.append(f"top {len(report.slowest)} slowest tasks:")
        for t in report.slowest:
            what = f"root {t.attrs['root']}" if "root" in t.attrs else t.name
            lines.append(
                f"  {t.duration:.5f}{unit}  {what:<14} on {t.lane}"
            )
    return "\n".join(lines)
