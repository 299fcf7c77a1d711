"""The well-known ParaPLL instruments, declared once on the registry.

Every instrumented module imports its handles from here, so the metric
name table in README.md has exactly one source of truth.  All handles
live on the default registry; ``registry.reset()`` zeroes them in place
without invalidating these references.

Call sites guard updates with ``if config.METRICS`` themselves when the
update is per-inner-loop; the ``record_*`` helpers below bundle the
common multi-counter bumps (one per root search, per sync round, ...)
and include the guard.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import config as _config
from repro.obs.metrics import get_registry

_REG = get_registry()

#: Estimated serialized size of one label entry on the wire:
#: vertex id (4B) + hub rank (4B) + float32 distance (4B).
ENTRY_BYTES = 12

# ----------------------------------------------------------------------
# Build (pruned-Dijkstra / pruned-BFS root searches; any execution mode)
# ----------------------------------------------------------------------
BUILD_ROOTS = _REG.counter(
    "parapll_build_roots_total", "Pruned root searches completed"
)
BUILD_SETTLED = _REG.counter(
    "parapll_build_settled_total", "Vertices settled across all searches"
)
BUILD_PRUNE_HITS = _REG.counter(
    "parapll_build_prune_hits_total",
    "Settled vertices discarded by the 2-hop-cover prune test",
)
BUILD_LABELS = _REG.counter(
    "parapll_build_labels_total", "Label entries produced by root searches"
)
BUILD_HEAP_POPS = _REG.counter(
    "parapll_build_heap_pops_total", "Priority-queue delete-min operations"
)
BUILD_QUERY_SCANS = _REG.counter(
    "parapll_build_query_scans_total",
    "Label entries read by prune-test queries",
)
BUILD_PHASE = _REG.gauge(
    "parapll_build_phase_seconds",
    "Accumulated seconds per build phase",
    labels=("phase",),
)

# ----------------------------------------------------------------------
# Build monitor (live progress of an in-flight build)
# ----------------------------------------------------------------------
BUILDMON_ROOTS_DONE = _REG.gauge(
    "parapll_buildmon_roots_done",
    "Roots committed so far in the monitored build",
)
BUILDMON_LABELS_TOTAL = _REG.gauge(
    "parapll_buildmon_labels_total",
    "Label entries committed so far in the monitored build",
)
BUILDMON_ETA = _REG.gauge(
    "parapll_buildmon_eta_seconds",
    "Estimated seconds until the monitored build completes (-1 unknown)",
)
BUILDMON_SNAPSHOTS = _REG.counter(
    "parapll_buildmon_snapshots_total",
    "Progress snapshots emitted by the build monitor",
)

# ----------------------------------------------------------------------
# Thread pool / task manager
# ----------------------------------------------------------------------
WORKER_ROOTS = _REG.counter(
    "parapll_worker_roots_total",
    "Roots indexed per worker thread",
    labels=("worker",),
)
WORKER_QUEUE_WAIT = _REG.counter(
    "parapll_worker_queue_wait_seconds_total",
    "Seconds each worker spent asking the task manager for work",
    labels=("worker",),
)
COMMIT_LOCK_WAIT = _REG.counter(
    "parapll_commit_lock_wait_seconds_total",
    "Seconds workers waited to acquire the label-commit lock",
)
COMMIT_LOCK_HOLD = _REG.counter(
    "parapll_commit_lock_hold_seconds_total",
    "Seconds the label-commit lock was held",
)
COMMITS = _REG.counter(
    "parapll_commits_total", "Label delta commits into the shared store"
)
TASKS_DISPATCHED = _REG.counter(
    "parapll_tasks_dispatched_total",
    "Root tasks handed out by the task manager",
    labels=("policy",),
)

# ----------------------------------------------------------------------
# Cluster substrate
# ----------------------------------------------------------------------
CLUSTER_SYNC_ROUNDS = _REG.counter(
    "parapll_cluster_sync_rounds_total",
    "Completed cluster synchronisation rounds (allgather exchanges)",
)
CLUSTER_SYNC_ENTRIES = _REG.histogram(
    "parapll_cluster_sync_entries",
    "Label entries exchanged per synchronisation round",
    buckets=(1, 10, 100, 1_000, 10_000, 100_000, 1_000_000),
)
CLUSTER_MESSAGES = _REG.counter(
    "parapll_cluster_messages_total",
    "Simulated communicator operations",
    labels=("op",),
)
CLUSTER_BYTES = _REG.counter(
    "parapll_cluster_bytes_total",
    "Estimated bytes moved by the simulated communicator "
    f"({ENTRY_BYTES}B per label entry, fan-out counted)",
)
CLUSTER_REDUNDANT_LABELS = _REG.counter(
    "parapll_cluster_redundant_labels_total",
    "Remote label entries skipped at merge because a node already "
    "held them (the redundancy a serial build would not produce)",
)

# ----------------------------------------------------------------------
# Serving layer
# ----------------------------------------------------------------------
SERVICE_REQUESTS = _REG.counter(
    "parapll_service_requests_total",
    "Requests handled by the TCP distance server",
    labels=("op",),
)
SERVICE_ERRORS = _REG.counter(
    "parapll_service_errors_total",
    "Requests answered with ok=false",
    labels=("op",),
)
SERVICE_LATENCY = _REG.histogram(
    "parapll_service_request_seconds",
    "Server-side request handling latency",
    labels=("op",),
)
SERVICE_MALFORMED = _REG.counter(
    "parapll_service_malformed_lines_total",
    "Request lines that failed JSON decoding",
)
SERVICE_SLOW = _REG.counter(
    "parapll_service_slow_requests_total",
    "Requests slower than the server's slow-query threshold",
    labels=("op",),
)
ORACLE_QUERIES = _REG.counter(
    "parapll_oracle_queries_total",
    "Point-distance queries answered by the in-process oracle",
)
ORACLE_CACHE_HITS = _REG.counter(
    "parapll_oracle_cache_hits_total",
    "Oracle queries answered from the LRU cache",
)
SERVICE_SHED = _REG.counter(
    "parapll_service_shed_total",
    "Requests fast-failed by the SLO load shedder",
    labels=("op",),
)

# ----------------------------------------------------------------------
# SLO engine (sliding-window objectives; see repro.obs.slo)
# ----------------------------------------------------------------------
SLO_BURN_RATE = _REG.gauge(
    "parapll_slo_burn_rate",
    "Error-budget burn rate per SLO target (1.0 = burning exactly at "
    "the objective's tolerance; >1.0 = violating)",
    labels=("target",),
)
SLO_BUDGET_REMAINING = _REG.gauge(
    "parapll_slo_error_budget_remaining",
    "Fraction of the windowed error budget left per SLO target",
    labels=("target",),
)
SLO_BREACHES = _REG.counter(
    "parapll_slo_breaches_total",
    "Burn-rate threshold crossings (breach transitions) per SLO target",
    labels=("target",),
)

# ----------------------------------------------------------------------
# Telemetry relay (cross-process plane; see repro.obs.relay)
# ----------------------------------------------------------------------
TELEMETRY_FRAMES = _REG.counter(
    "parapll_telemetry_frames_total",
    "Telemetry frames received per relay source",
    labels=("source",),
)
TELEMETRY_DROPPED = _REG.counter(
    "parapll_telemetry_dropped_total",
    "Events evicted from the source's ring before shipping, "
    "per relay source",
    labels=("source",),
)
TELEMETRY_LAG = _REG.gauge(
    "parapll_telemetry_queue_lag_seconds",
    "Max age of an event at shipping time, per relay source, "
    "seconds",
    labels=("source",),
)

#: Ops the server reports individually; anything else is folded into
#: "unknown" so hostile clients cannot blow up label cardinality.
KNOWN_SERVICE_OPS = frozenset(
    {
        "ping",
        "distance",
        "batch",
        "knn",
        "path",
        "stats",
        "metrics",
        "explain",
        "status",
        "debug",
        "audit",
        "health",
    }
)


# ----------------------------------------------------------------------
# Bundled record helpers (one call per instrumented operation)
# ----------------------------------------------------------------------
def record_search(
    settled: int, pruned: int, labels: int, pops: int, scans: int
) -> None:
    """Record one completed pruned root search (any execution mode)."""
    if not _config.METRICS:
        return
    BUILD_ROOTS.inc()
    BUILD_SETTLED.inc(settled)
    BUILD_PRUNE_HITS.inc(pruned)
    BUILD_LABELS.inc(labels)
    BUILD_HEAP_POPS.inc(pops)
    BUILD_QUERY_SCANS.inc(scans)


def record_build_progress(
    roots_done: int, labels_total: int, eta_seconds: Optional[float]
) -> None:
    """Record one emitted build-monitor progress snapshot."""
    if not _config.METRICS:
        return
    BUILDMON_ROOTS_DONE.set(roots_done)
    BUILDMON_LABELS_TOTAL.set(labels_total)
    BUILDMON_ETA.set(eta_seconds if eta_seconds is not None else -1.0)
    BUILDMON_SNAPSHOTS.inc()


def record_sync_round(entries: int) -> None:
    """Record one cluster synchronisation round exchanging *entries*."""
    if not _config.METRICS:
        return
    CLUSTER_SYNC_ROUNDS.inc()
    CLUSTER_SYNC_ENTRIES.observe(entries)


def record_comm(op: str, entries: int, fanout: int = 1) -> None:
    """Record one communicator operation moving *entries* label entries
    to *fanout* receivers (0 receivers — a 1-rank collective — moves no
    bytes but still counts as an operation)."""
    if not _config.METRICS:
        return
    CLUSTER_MESSAGES.labels(op=op).inc()
    CLUSTER_BYTES.inc(entries * ENTRY_BYTES * max(0, fanout))


def record_request(
    op: Optional[str], seconds: float, ok: bool, include_latency: bool = True
) -> None:
    """Record one server request: counter, latency histogram, errors.

    Args:
        op: request op (folded into ``"unknown"`` when unrecognised).
        seconds: server-side handling time.
        ok: whether the request succeeded.
        include_latency: pass ``False`` when the caller records latency
            at a finer grain itself (the batch op observes *per-pair*
            latencies via :func:`record_batch_pair` instead of skewing
            the histogram with one whole-request sample).
    """
    if not _config.METRICS:
        return
    label = op if op in KNOWN_SERVICE_OPS else "unknown"
    SERVICE_REQUESTS.labels(op=label).inc()
    if include_latency:
        SERVICE_LATENCY.labels(op=label).observe(seconds)
    if not ok:
        SERVICE_ERRORS.labels(op=label).inc()


def record_batch_pair(seconds: float) -> None:
    """Record one pair's latency inside a batch request."""
    if not _config.METRICS:
        return
    SERVICE_LATENCY.labels(op="batch").observe(seconds)


def record_slow_request(op: Optional[str]) -> None:
    """Count one request that exceeded the slow-query threshold."""
    if not _config.METRICS:
        return
    label = op if op in KNOWN_SERVICE_OPS else "unknown"
    SERVICE_SLOW.labels(op=label).inc()


def record_shed(op: Optional[str]) -> None:
    """Count one request fast-failed by the SLO load shedder."""
    if not _config.METRICS:
        return
    label = op if op in KNOWN_SERVICE_OPS else "unknown"
    SERVICE_SHED.labels(op=label).inc()


def record_slo_target(
    target: str, burn_rate: float, budget_remaining: float, breached: bool
) -> None:
    """Mirror one SLO target evaluation onto the gauges.

    Args:
        target: SLO target name.
        burn_rate: current windowed burn rate.
        budget_remaining: fraction of the windowed budget left.
        breached: ``True`` only on the breach *transition* (the counter
            counts crossings, not evaluations while breached).
    """
    if not _config.METRICS:
        return
    SLO_BURN_RATE.labels(target=target).set(burn_rate)
    SLO_BUDGET_REMAINING.labels(target=target).set(budget_remaining)
    if breached:
        SLO_BREACHES.labels(target=target).inc()
