"""``repro.obs`` — the end-to-end observability layer.

ParaPLL's story is about where time and labels go: per-root pruning
efficiency, static-vs-dynamic balance, the sync-frequency trade between
communication and redundant labels.  This package makes those
quantities observable on *live* runs — real builds, the simulator and
the TCP serving layer all feed one process-wide metrics registry and
one event ring, the flight recorder's (spans join it when tracing is
on).

* :mod:`repro.obs.metrics` — thread-safe counters, gauges and
  fixed-bucket histograms with labeled series.
* :mod:`repro.obs.trace` — opt-in span/event tracing onto the flight
  recorder's ring (monotonic clocks, thread-local span nesting).
* :mod:`repro.obs.export` — Prometheus text exposition and the
  human-readable summary behind ``parapll obs``.
* :mod:`repro.obs.timers` — phase timers and a sampling profiler.
* :mod:`repro.obs.instruments` — the well-known metric handles the
  instrumented modules bump.
* :mod:`repro.obs.timeline` — Chrome-trace (Perfetto) export and
  critical-path analysis of flight events.
* :mod:`repro.obs.perf` / :mod:`repro.obs.regression` — the
  deterministic fingerprint suite behind ``parapll perf``: recorded
  baselines plus the two-sided changed/unchanged gate.
* :mod:`repro.obs.env` — environment metadata stamped onto results.
* :mod:`repro.obs.explain` — per-query EXPLAIN: candidate hubs,
  winner/redundant/dominated classification, label-scan costs.
* :mod:`repro.obs.context` — cross-rank :class:`TraceContext`
  propagation; communicators stamp it onto every envelope.
* :mod:`repro.obs.flightrec` — always-on ring buffer of the last N
  structured events (spans included when tracing), dumped to JSONL on
  failures / ``SIGUSR1``; the one writer and reader of every
  ``parapll-*/1`` JSONL dump.
* :mod:`repro.obs.buildmon` — live build monitor: per-root telemetry
  from the serial/thread/sim/cluster builders as roots commit, emitted
  as ``parapll-buildmon/1`` progress snapshots (ETA, labels/sec,
  pruning ratio, stalled workers).
* :mod:`repro.obs.audit` — index-health audit of a finished index:
  label-size distribution, hub-coverage concentration, dominated-entry
  detection and memory attribution as a ``parapll-audit/1`` report.
* :mod:`repro.obs.qlog` — sampled query-log capture of serve-path
  traffic (``parapll-qlog/1``) to a JSONL sink, hooked into the oracle
  and TCP server.
* :mod:`repro.obs.slo` — sliding-window latency/availability SLOs:
  multi-resolution windowed quantiles, error budgets, burn rates,
  breach events and the server's load-shedding signal.
* :mod:`repro.obs.workload` — workload characterization from a qlog:
  Zipf skew fit, hot vertices/pairs, simulated LRU hit-rate curve
  (``parapll-workload/1``).
* :mod:`repro.obs.bus` / :mod:`repro.obs.relay` — the cross-process
  telemetry plane (``parapll-telemetry/3``): a socket relay that ships
  each worker process's metric deltas and flight-recorder ring tail
  (spans included) with periodic and at-exit flushes, and a
  parent-side collector that merges metrics (counters sum, gauges LWW
  tagged by source, histograms bucket-merge) and stitches events into
  one fleet-wide Chrome trace — the sensor layer behind
  ``parapll dash``.

Metrics are default-on (cheap counter bumps); tracing is opt-in::

    from repro import obs

    obs.configure(tracing=True)
    build_parallel_threads(graph, 4)
    print(obs.render_summary())
    obs.get_recorder().dump("build.trace.jsonl", reason="trace")
"""

from repro.obs.audit import (
    AUDIT_SCHEMA,
    audit_index,
    diff_reports,
    load_report,
    render_diff,
    render_report,
    validate_report,
)
from repro.obs.buildmon import (
    BUILDMON_SCHEMA,
    BuildMonitor,
    monitored,
    report_root,
)
from repro.obs.bus import (
    TELEMETRY_SCHEMA,
    MetricsDelta,
)
from repro.obs.config import ObsConfig, configure, current_config
from repro.obs.context import (
    Envelope,
    TraceContext,
    activate,
    new_context,
)
from repro.obs.env import environment_metadata
from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    HubCandidate,
    QueryExplanation,
    explain_query,
)
from repro.obs.flightrec import (
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    get_recorder,
    install_signal_handler,
)
from repro.obs.export import prometheus_text, render_summary
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsError,
    get_registry,
    histogram_bucket_counts,
    histogram_quantile,
    merge_histogram_snapshot,
)
from repro.obs.relay import Collector, RelayClient, render_fleet
from repro.obs.timeline import (
    CriticalPathReport,
    analyze_critical_path,
    chrome_trace,
    render_critical_path,
    write_chrome_trace,
)
from repro.obs.qlog import (
    QLOG_SCHEMA,
    QueryLogRecorder,
    read_qlog,
    recording,
)
from repro.obs.slo import (
    SLO_SCHEMA,
    SLOTarget,
    SLOTracker,
    SlidingWindowHistogram,
    get_tracker,
)
from repro.obs.timers import PhaseTimer, SamplingProfiler
from repro.obs.trace import event, span
from repro.obs.workload import (
    WORKLOAD_SCHEMA,
    characterize,
    render_workload,
)

__all__ = [
    "ObsConfig",
    "configure",
    "current_config",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsError",
    "get_registry",
    "span",
    "event",
    "PhaseTimer",
    "SamplingProfiler",
    "prometheus_text",
    "render_summary",
    "histogram_quantile",
    "environment_metadata",
    "CriticalPathReport",
    "analyze_critical_path",
    "chrome_trace",
    "render_critical_path",
    "write_chrome_trace",
    "TraceContext",
    "Envelope",
    "new_context",
    "activate",
    "EXPLAIN_SCHEMA",
    "HubCandidate",
    "QueryExplanation",
    "explain_query",
    "FLIGHTREC_SCHEMA",
    "FlightRecorder",
    "get_recorder",
    "install_signal_handler",
    "BUILDMON_SCHEMA",
    "BuildMonitor",
    "monitored",
    "report_root",
    "AUDIT_SCHEMA",
    "audit_index",
    "diff_reports",
    "load_report",
    "render_diff",
    "render_report",
    "validate_report",
    "QLOG_SCHEMA",
    "QueryLogRecorder",
    "read_qlog",
    "recording",
    "SLO_SCHEMA",
    "SLOTarget",
    "SLOTracker",
    "SlidingWindowHistogram",
    "get_tracker",
    "WORKLOAD_SCHEMA",
    "characterize",
    "render_workload",
    "TELEMETRY_SCHEMA",
    "MetricsDelta",
    "RelayClient",
    "Collector",
    "render_fleet",
    "histogram_bucket_counts",
    "merge_histogram_snapshot",
    "reset",
]


def reset() -> None:
    """Zero all metrics and drop all event-ring/SLO/qlog state.

    Registrations and instrument handles survive — only values are
    cleared.  Intended for tests and for scoping a metrics snapshot to
    one run (the bench harness calls this before each experiment).
    """
    from repro.obs import qlog as _qlog

    get_registry().reset()
    get_recorder().clear()
    get_tracker().reset()
    active = _qlog.active()
    if active is not None:
        active.clear()
