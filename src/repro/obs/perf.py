"""The performance suite: small deterministic workloads, recorded runs.

One ``BENCH_<tag>.json`` file captures everything needed to compare two
revisions of this codebase: per-workload wall/simulated times and the
key operation counters (heap pops, prune hits, labels, sync bytes),
each run ``repeats`` times with the median and extremes recorded, plus
environment metadata so numbers from different machines are never
silently conflated.  :mod:`repro.obs.regression` consumes two such
files and classifies every metric as improved / unchanged / regressed.

Three metric kinds, with different noise characteristics:

* ``"time"`` — wall-clock seconds; machine- and load-dependent, gated
  with a generous default tolerance and skippable across machines.
* ``"sim"`` — simulated seconds from the discrete-event executor;
  deterministic for a fixed seed, gated tightly.
* ``"counter"`` — operation counts; deterministic except where noted
  (threaded-build label counts depend on commit interleaving), gated
  exactly by default with per-metric overrides.

The workload set covers every execution mode: serial build, threaded
build at p ∈ {1, 4}, simulated build, cluster build with one sync, a
query batch, a TCP server round-trip, a seeded closed-loop traffic
replay with an SLO verdict, and the qlog/SLO and telemetry-relay
hot-path overhead gates.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.env import environment_metadata

__all__ = [
    "BENCH_SCHEMA",
    "PerfError",
    "Workload",
    "default_workloads",
    "run_suite",
    "read_bench",
    "write_bench",
    "render_bench",
    "DEFAULT_TOLERANCES",
]

BENCH_SCHEMA = "parapll-bench/1"

#: Default relative tolerances per metric kind (see module docstring).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "time": 0.35,
    "sim": 0.02,
    "counter": 0.0,
}

#: Absolute slack per kind: differences below this never count as a
#: change (guards tiny-workload timing noise and float drift).
ABS_EPSILON: Dict[str, float] = {
    "time": 0.005,
    "sim": 1e-9,
    "counter": 0.5,
}


class PerfError(ReproError):
    """Raised for invalid perf-suite configuration or result files."""


def _metric(
    value: float, kind: str, unit: str, tol: Optional[float] = None
) -> Dict[str, Any]:
    if kind not in DEFAULT_TOLERANCES:
        raise PerfError(f"unknown metric kind {kind!r}")
    return {
        "value": float(value),
        "kind": kind,
        "unit": unit,
        "tol": DEFAULT_TOLERANCES[kind] if tol is None else float(tol),
    }


def _counter_value(name: str) -> float:
    from repro.obs.metrics import get_registry

    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for _key, series in metric.series_items():
        value = series.value()  # type: ignore[attr-defined]
        if isinstance(value, dict):
            total += float(value["sum"])
        else:
            total += float(value)
    return total


class PerfContext:
    """Shared state for one suite run: the workload graph and knobs."""

    def __init__(self, scale: float, seed: int, dataset: str) -> None:
        from repro.generators.paper import load_dataset

        self.scale = scale
        self.seed = seed
        self.dataset = dataset
        self.graph = load_dataset(dataset, scale=scale, seed=seed)


class Workload:
    """One named, repeatable measurement.

    Args:
        name: stable identifier (a key of the BENCH file).
        fn: callable taking a :class:`PerfContext` and returning the
            metric dict for one run; called once per repeat with the
            obs registry freshly reset.
        timeline: optional callable producing a JSON-safe timeline
            summary (per-worker fractions) recorded once per suite run.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[PerfContext], Dict[str, Dict[str, Any]]],
        timeline: Optional[Callable[[PerfContext], Dict[str, Any]]] = None,
    ) -> None:
        self.name = name
        self.fn = fn
        self.timeline = timeline


# ----------------------------------------------------------------------
# Workload implementations
# ----------------------------------------------------------------------
def _build_counters(tol_labels: float = 0.0) -> Dict[str, Dict[str, Any]]:
    """The build-side operation counters, read from the registry."""
    return {
        "heap_pops": _metric(
            _counter_value("parapll_build_heap_pops_total"), "counter", "ops"
        ),
        "prune_hits": _metric(
            _counter_value("parapll_build_prune_hits_total"),
            "counter",
            "ops",
            tol=tol_labels,
        ),
        "labels": _metric(
            _counter_value("parapll_build_labels_total"),
            "counter",
            "entries",
            tol=tol_labels,
        ),
    }


def _wl_serial_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    from repro.core.serial import build_serial

    t0 = time.perf_counter()
    build_serial(ctx.graph)
    wall = time.perf_counter() - t0
    out = {"wall_seconds": _metric(wall, "time", "s")}
    out.update(_build_counters())
    return out


def _wl_thread_build(p: int):
    def run(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
        from repro.parallel.threads import build_parallel_threads

        t0 = time.perf_counter()
        build_parallel_threads(ctx.graph, p, policy="dynamic")
        wall = time.perf_counter() - t0
        out = {"wall_seconds": _metric(wall, "time", "s")}
        # With p > 1, prune effectiveness depends on commit
        # interleaving, so label/pop counts are noisy by nature.
        out.update(_build_counters(tol_labels=0.0 if p == 1 else 0.5))
        if p > 1:
            out["heap_pops"]["tol"] = 0.5
        out["roots"] = _metric(
            _counter_value("parapll_build_roots_total"), "counter", "roots"
        )
        return out

    return run


def _wl_multicore_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Serial vs. 4-process shared-memory build on the perf graph.

    The wall clocks and the derived speedup are kind ``time`` (machine-
    dependent: the speedup only materialises with >= 4 real cores, so
    CI compares with ``--ignore-kinds time``); the gating metrics are
    the deterministic ones — every root committed exactly once and the
    procs index answering a query sample identically to serial.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.parallel.procs import build_parallel_procs

    t0 = time.perf_counter()
    serial = PLLIndex.build(ctx.graph)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    procs = build_parallel_procs(ctx.graph, 4, policy="dynamic")
    procs_wall = time.perf_counter() - t0
    rng = np.random.default_rng(ctx.seed)
    n = ctx.graph.num_vertices
    pairs = rng.integers(0, n, size=(256, 2))
    exact = bool(
        np.allclose(
            serial.distance_batch(pairs),
            procs.distance_batch(pairs),
            equal_nan=True,
        )
    )
    return {
        "serial_wall_seconds": _metric(serial_wall, "time", "s"),
        "procs_wall_seconds": _metric(procs_wall, "time", "s"),
        "speedup_x": _metric(
            serial_wall / procs_wall if procs_wall else 0.0, "time", "x"
        ),
        "roots_committed": _metric(
            _counter_value("parapll_worker_roots_total"), "counter", "roots"
        ),
        "query_exact": _metric(1.0 if exact else 0.0, "counter", "bool"),
    }


def _run_sim(ctx: PerfContext):
    from repro.sim.executor import simulate_intra_node

    return simulate_intra_node(
        ctx.graph,
        4,
        policy="dynamic",
        jitter=0.15,
        worker_jitter=0.25,
        seed=ctx.seed + 4,
    )


def _wl_sim_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    _index, run = _run_sim(ctx)
    out = {
        "makespan_sim_seconds": _metric(run.makespan, "sim", "s"),
        "computation_sim_seconds": _metric(
            run.computation_time, "sim", "s"
        ),
    }
    out.update(_build_counters())
    return out


def _wl_sim_build_timeline(ctx: PerfContext) -> Dict[str, Any]:
    """Traced sim build reduced to per-worker fractions (JSON-safe)."""
    from repro import obs
    from repro.obs.timeline import analyze_critical_path

    previous = obs.current_config()
    obs.get_tracer().clear()
    obs.configure(tracing=True)
    try:
        _run_sim(ctx)
        report = analyze_critical_path(task_names=("root_search",))
    finally:
        obs.configure(tracing=previous.tracing)
        obs.get_tracer().clear()
    return {
        "makespan_sim_seconds": report.makespan,
        "chain_tasks": len(report.chain),
        "chain_seconds": report.chain_seconds,
        "chain_coverage": report.chain_coverage,
        "workers": [
            {
                "lane": lane.lane,
                "tasks": lane.tasks,
                "busy": lane.busy,
                "lock_wait": lane.lock_wait,
                "idle": lane.idle,
            }
            for lane in report.lanes
        ],
    }


def _wl_cluster_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    from repro.cluster.parapll import simulate_cluster

    _index, run = simulate_cluster(
        ctx.graph,
        2,
        threads_per_node=2,
        policy="dynamic",
        syncs=1,
        jitter=0.15,
        worker_jitter=0.25,
        seed=ctx.seed + 9,
    )
    return {
        "makespan_sim_seconds": _metric(run.makespan, "sim", "s"),
        "communication_sim_seconds": _metric(
            run.communication_time, "sim", "s"
        ),
        "sync_entries": _metric(
            _counter_value("parapll_cluster_sync_entries"),
            "counter",
            "entries",
        ),
        "sync_bytes": _metric(
            _counter_value("parapll_cluster_bytes_total"), "counter", "B"
        ),
        "redundant_labels": _metric(
            _counter_value("parapll_cluster_redundant_labels_total"),
            "counter",
            "entries",
        ),
    }


def _wl_query_batch(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    import numpy as np

    from repro.core.index import PLLIndex

    index = PLLIndex.build(ctx.graph)
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed)
    pairs = rng.integers(0, n, size=(2000, 2))
    t0 = time.perf_counter()
    for s, t in pairs:
        index.query(int(s), int(t))
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": _metric(wall, "time", "s"),
        "queries": _metric(len(pairs), "counter", "queries"),
    }


def _wl_batch_query(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """The vectorised batch kernel vs the per-pair Python loop.

    Times ``query_distance_batch`` on 10k pairs against the equivalent
    scalar ``query_distance`` loop over the same pairs, and counts how
    many answers agree bit-for-bit (``batch_matches`` must equal
    ``pairs`` — the kernel is exact, not approximate).  The
    ``batch_over_scalar`` ratio is the batch wall divided by the scalar
    wall: lower is better, and staying well under 1/3 is the point of
    the kernel.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.core.query import query_distance, query_distance_batch

    index = PLLIndex.build(ctx.graph)
    store = index.store
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed + 23)
    pairs = rng.integers(0, n, size=(10_000, 2))

    t0 = time.perf_counter()
    batch_out = query_distance_batch(store, pairs)
    batch_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_out = np.array(
        [query_distance(store, int(s), int(t)) for s, t in pairs]
    )
    scalar_wall = time.perf_counter() - t0

    matches = int(np.sum(batch_out == scalar_out))
    return {
        "batch_seconds": _metric(batch_wall, "time", "s"),
        "scalar_seconds": _metric(scalar_wall, "time", "s"),
        # Dimensionless wall ratio; generous tol — both walls jitter.
        "batch_over_scalar": _metric(
            batch_wall / scalar_wall, "time", "x", tol=1.0
        ),
        "batch_matches": _metric(float(matches), "counter", "pairs"),
        "pairs": _metric(float(len(pairs)), "counter", "pairs"),
    }


def _wl_server_roundtrip(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.service.oracle import DistanceOracle
    from repro.service.server import DistanceClient, DistanceServer

    index = PLLIndex.build(ctx.graph)
    oracle = DistanceOracle(index)
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed)
    pairs = rng.integers(0, n, size=(100, 2))
    with DistanceServer(oracle) as server:
        with DistanceClient("127.0.0.1", server.port) as client:
            client.ping()  # connection warm-up, excluded from timing
            t0 = time.perf_counter()
            for s, t in pairs:
                client.distance(int(s), int(t))
            wall = time.perf_counter() - t0
    return {
        "wall_seconds": _metric(wall, "time", "s"),
        "requests": _metric(len(pairs), "counter", "requests"),
    }


def _wl_index_invariants(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """``parapll check index`` smoke: every BENCH file records whether a
    threaded build of the suite graph passes the label-invariant
    verifier, plus the violation/redundancy counts — so a concurrency
    regression that corrupts labels (rather than slowing them down)
    still fails the perf gate."""
    from repro.check.invariants import verify_index
    from repro.parallel.threads import build_parallel_threads

    index = build_parallel_threads(ctx.graph, 4, policy="dynamic")
    t0 = time.perf_counter()
    report = verify_index(index, samples=32, seed=ctx.seed)
    wall = time.perf_counter() - t0
    return {
        "verify_seconds": _metric(wall, "time", "s"),
        "invariants_ok": _metric(
            1.0 if report.ok else 0.0, "counter", "bool"
        ),
        "invariant_violations": _metric(
            float(len(report.violations)), "counter", "violations"
        ),
        # Redundant labels are legal but worth watching: a sustained
        # order-of-magnitude jump means pruning got much less
        # effective.  Commit interleaving makes the count swing ~2.5x
        # run to run, hence the very loose tolerance.
        "redundant_labels": _metric(
            float(report.redundant_labels), "counter", "entries", tol=3.0
        ),
        "sampled_pairs": _metric(
            float(report.sampled_pairs), "counter", "pairs"
        ),
    }


def _wl_explain_overhead(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """EXPLAIN must cost the plain query path nothing.

    EXPLAIN runs on a separate diagnostic code path
    (:func:`repro.core.query.query_candidates`), not an ``if`` inside
    the hot merge join — so this workload times the *plain*
    ``query_distance`` loop (gating it like any other time metric: a
    regression here means EXPLAIN leaked into the hot path) and
    separately times the EXPLAIN loop, while asserting that every
    explained distance equals the plain query bit-for-bit.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.core.paths import isclose_distance
    from repro.core.query import query_distance

    index = PLLIndex.build(ctx.graph)
    store = index.store
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed + 17)
    pairs = [(int(s), int(t)) for s, t in rng.integers(0, n, size=(100, 2))]

    t0 = time.perf_counter()
    plain = [query_distance(store, s, t) for s, t in pairs]
    plain_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    explanations = [index.explain(s, t) for s, t in pairs]
    explain_wall = time.perf_counter() - t0

    # atol=0.0 makes isclose_distance an exact-equality test (with the
    # INF sentinel handled): EXPLAIN must reproduce the query verbatim.
    matches = sum(
        1
        for d, e in zip(plain, explanations)
        if isclose_distance(d, e.distance, atol=0.0)
    )
    return {
        "plain_query_seconds": _metric(plain_wall, "time", "s"),
        "explain_seconds": _metric(explain_wall, "time", "s"),
        "explain_matches": _metric(float(matches), "counter", "pairs"),
        "pairs": _metric(float(len(pairs)), "counter", "pairs"),
    }


def _wl_audit_overhead(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Buildmon must be (nearly) free; the audit must stay canonical.

    The <5% overhead assertion cannot be enforced by differencing two
    whole-build walls: on the sub-100ms suite build, run-to-run wall
    noise is ±10% — larger than the bound being asserted — so that
    gate would fail on noise, not regressions.  Instead the monitor's
    *added work* is timed directly: the build calls ``root_done`` once
    per root plus the sampled emissions, so n hook calls (driving the
    same sampling schedule a monitored build would) divided by the
    plain build wall IS the overhead fraction, and because its true
    value is ~1% the noise multiplies a small number and the 5% gate
    holds deterministically.  ``overhead_within_gate`` (exact counter)
    fails the perf comparison outright if the fraction ever exceeds
    0.05; ``monitor_overhead_ratio`` keeps the end-to-end
    monitored/plain wall ratio as an informational time metric; and
    ``progress_events`` pins the sampling schedule exactly, so a
    change that makes the monitor emit per root fails even when the
    machine is too noisy to see it in the walls.  The same workload
    times a full ``audit_index`` pass and pins its dominated count to
    zero — a serial build is canonical by construction, so a nonzero
    count here means the builder or the audit broke.
    """
    from repro.core.index import PLLIndex
    from repro.core.serial import build_serial
    from repro.obs import buildmon as _buildmon
    from repro.obs.audit import audit_index
    from repro.obs.buildmon import BuildMonitor
    from repro.types import SearchStats

    n = ctx.graph.num_vertices
    sample_every = max(1, n // 20)

    def _monitor() -> BuildMonitor:
        return BuildMonitor(
            total_roots=n,
            sample_every=sample_every,
            interval_seconds=None,
            keep_per_root=False,
        )

    def plain_wall() -> float:
        t0 = time.perf_counter()
        build_serial(ctx.graph)
        return time.perf_counter() - t0

    def monitored_wall() -> float:
        monitor = _monitor()
        with _buildmon.monitored(monitor):
            t0 = time.perf_counter()
            build_serial(ctx.graph)
            wall = time.perf_counter() - t0
        events[0] = len(monitor.events)
        return wall

    events = [0]
    plain = min(plain_wall() for _ in range(3))
    monitored = min(monitored_wall() for _ in range(3))

    # The monitor's entire footprint in a serial build: one root_done
    # per root, same sampling schedule, same stats bookkeeping.
    hook_monitor = _monitor()
    stats = SearchStats(root=0, settled=20, pruned=8, labels_added=12)
    t0 = time.perf_counter()
    for root in range(n):
        hook_monitor.root_done(0, root, stats=stats)
    hook_wall = time.perf_counter() - t0
    fraction = hook_wall / plain

    index = PLLIndex.build(ctx.graph)
    t0 = time.perf_counter()
    report = audit_index(index, source="perf")
    audit_wall = time.perf_counter() - t0

    return {
        "plain_build_seconds": _metric(plain, "time", "s"),
        "monitored_build_seconds": _metric(monitored, "time", "s"),
        # End-to-end wall ratio, informational only (see docstring).
        "monitor_overhead_ratio": _metric(
            monitored / plain, "time", "x", tol=0.5
        ),
        "monitor_hook_fraction": _metric(fraction, "time", "x", tol=1.0),
        # The hard gate: exact counter, 1.0 iff overhead <= 5%.
        "overhead_within_gate": _metric(
            1.0 if fraction <= 0.05 else 0.0, "counter", "bool"
        ),
        "progress_events": _metric(
            float(events[0]), "counter", "events"
        ),
        "audit_seconds": _metric(audit_wall, "time", "s"),
        "dominated_entries": _metric(
            float(report["dominated"]["count"]), "counter", "entries"
        ),
        "label_entries": _metric(
            float(report["total_entries"]), "counter", "entries"
        ),
    }


def _wl_serve_replay(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Seeded closed-loop replay against a live server, gated.

    This is the measurement ROADMAP item 2's sharded tier will be
    accepted against: a deterministic Zipf-skewed request sequence
    (same seed ⇒ same pairs, every run) pushed through the real TCP
    stack by concurrent clients, reporting throughput and tail
    latencies.  ``throughput_rps`` is recorded for the baseline but
    carries a huge tolerance — the regression gate is lower-is-better,
    so the gated forms are ``us_per_request`` and the p50/p99 walls.
    ``errors`` and ``breached_targets`` are exact: replaying a healthy
    index through a healthy server must produce neither.
    """
    from repro.core.index import PLLIndex
    from repro.obs.slo import SLOTracker
    from repro.service.oracle import DistanceOracle
    from repro.service.replay import ReplayConfig, run_replay
    from repro.service.server import DistanceServer

    index = PLLIndex.build(ctx.graph)
    oracle = DistanceOracle(index)
    config = ReplayConfig(
        mode="closed",
        source="zipf",
        requests=600,
        clients=4,
        seed=ctx.seed,
    )
    # A private tracker keeps the replay's SLO windows out of the
    # process-wide one (and vice versa).
    with DistanceServer(oracle, slo_tracker=SLOTracker()) as server:
        report = run_replay(config, host="127.0.0.1", port=server.port)
    lat = report["latency_us"]
    outcomes = report["outcomes"]
    return {
        "wall_seconds": _metric(report["wall_seconds"], "time", "s"),
        "us_per_request": _metric(
            report["wall_seconds"] * 1e6 / report["requests"], "time", "us"
        ),
        "p50_us": _metric(lat["p50"], "time", "us"),
        "p99_us": _metric(lat["p99"], "time", "us", tol=1.0),
        "throughput_rps": _metric(
            report["throughput_rps"], "time", "req/s", tol=5.0
        ),
        "requests": _metric(float(report["requests"]), "counter", "requests"),
        "errors": _metric(float(outcomes.get("error", 0)), "counter", "requests"),
        "breached_targets": _metric(
            float(len(report["verdict"]["breached"])), "counter", "targets"
        ),
    }


def _wl_qlog_overhead(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """The qlog + SLO hooks must cost the serve path <5%.

    Same reasoning as ``audit_overhead``: differencing two whole walls
    cannot assert a 5% bound under ±10% run noise, so the hooks' *added
    work* is timed directly and divided by the wall the hooks ride — a
    plain served request over the loopback TCP stack (socket + JSON
    framing + dispatch + oracle), measured as min-of-3 like the other
    overhead gates.  Per served request the added work is exactly: one
    :func:`repro.obs.qlog.record_query` call against an installed
    recorder (global load + seeded sampling decision + on sampled
    queries the record append) plus one
    :meth:`~repro.obs.slo.SLOTracker.record` (one lock, one bucket
    bisect, per-threshold exceedance counts).  The gate is evaluated at
    5% sampling — the recommended always-on capture rate; full capture
    (``qlog_sample=1.0``, the default, meant for short diagnostic
    windows) is reported informationally as ``full_sample_fraction``.
    ``qlog_records`` pins the seeded sampler's output exactly: a
    different count means sampling determinism broke.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.obs import qlog as _qlog
    from repro.obs.slo import SLOTracker
    from repro.service.oracle import DistanceOracle
    from repro.service.server import DistanceClient, DistanceServer

    index = PLLIndex.build(ctx.graph)
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed + 31)
    pairs = [(int(s), int(t)) for s, t in rng.integers(0, n, size=(1000, 2))]

    oracle = DistanceOracle(index, cache_size=1024)
    with DistanceServer(oracle, slo_tracker=SLOTracker()) as server:
        client = DistanceClient("127.0.0.1", server.port)
        try:

            def plain_wall() -> float:
                t0 = time.perf_counter()
                for s, t in pairs:
                    client.distance(s, t)
                return time.perf_counter() - t0

            plain = min(plain_wall() for _ in range(3))
        finally:
            client.close()

    def hook_wall(sample: float) -> tuple:
        recorder = _qlog.QueryLogRecorder(sample=sample, seed=ctx.seed)
        tracker = SLOTracker()
        _qlog.install(recorder)
        try:
            wall = float("inf")
            for _ in range(3):
                recorder.clear()
                t0 = time.perf_counter()
                for s, t in pairs:
                    _qlog.record_query("distance", s, t, 10.0)
                    tracker.record(1e-5, ok=True)
                wall = min(wall, time.perf_counter() - t0)
        finally:
            _qlog.uninstall()
        return wall, recorder.sampled

    sampled_wall, records = hook_wall(0.05)
    full_wall, _ = hook_wall(1.0)
    fraction = sampled_wall / plain
    return {
        "plain_serve_seconds": _metric(plain, "time", "s"),
        "hook_fraction": _metric(fraction, "time", "x", tol=1.0),
        "full_sample_fraction": _metric(
            full_wall / plain, "time", "x", tol=1.0
        ),
        # The hard gate: exact counter, 1.0 iff overhead at the
        # recommended 5% sampling rate stays <= 5% of the
        # served-request wall.
        "overhead_within_gate": _metric(
            1.0 if fraction <= 0.05 else 0.0, "counter", "bool"
        ),
        "qlog_records": _metric(float(records), "counter", "records"),
        "pairs": _metric(float(len(pairs)), "counter", "pairs"),
    }


def _wl_check_overhead(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """The vector-clock sanitizer must cost the thread build <10%.

    Same direct-measurement reasoning as ``audit_overhead``: a 10%
    bound cannot be asserted by differencing two whole-build walls
    under ±10% run noise.  One instrumented build (under
    ``PARAPLL_SANITIZE=vc`` semantics: a fresh
    ``VectorClockSanitizer`` installed) counts the actual hook traffic
    — tracked accesses, lock acquire/release pairs, fork/join events —
    and must finish race-free (``vc_races`` pins that to zero).  The
    sanitizer's *added work* is then timed directly by replaying that
    exact hook schedule against a fresh engine, and divided by the
    plain build wall; ``overhead_within_gate`` (exact counter) fails
    the comparison outright if the fraction exceeds 0.10.  When the
    sanitizer is off the hooks must dispatch to nothing:
    ``hooks_active_when_off`` pins the off-path to an exact zero.
    """
    import gc

    from repro.check import hooks as _check_hooks
    from repro.check.vectorclock import VectorClockSanitizer
    from repro.parallel.threads import build_parallel_threads

    def plain_wall() -> float:
        t0 = time.perf_counter()
        build_parallel_threads(ctx.graph, 4, policy="dynamic")
        return time.perf_counter() - t0

    # Off-path: with no sanitizer installed the hooks are no-ops.
    ambient = _check_hooks.get_active()
    _check_hooks.set_active(None)
    # Freeze the garbage collector across the timed sections: by this
    # point the suite has built a dozen indexes, and automatic gen2
    # passes scan that whole heap mid-loop — the measured fraction
    # would track heap size (and the workload's position in the
    # suite), not the sanitizer.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        hooks_active = 1.0 if _check_hooks.get_active() is not None else 0.0
        plain = min(plain_wall() for _ in range(3))

        build_vc = VectorClockSanitizer()
        with build_vc:
            t0 = time.perf_counter()
            build_parallel_threads(ctx.graph, 4, policy="dynamic")
            sanitized = time.perf_counter() - t0

        # Replay the observed hook schedule against a fresh engine:
        # that loop IS the sanitizer's entire footprint in the build.
        # The instrumented build splits its accesses into two measured
        # populations — same-owner re-writes riding the FastTrack
        # same-epoch fast path (the overwhelming majority: commits to a
        # vertex's label streak from one worker) and full
        # epoch-allocating, stack-capturing slow-path accesses — and
        # the replay reproduces that observed mix exactly: a fresh
        # location per slow-path access (a one-location replay would
        # ride the fast path and dodge the conflict checks), then the
        # fast-path population as repeated writes to one hot location.
        slow = build_vc.accesses_tracked - build_vc.fastpath_hits
        names = [f"perf.store.{i}" for i in range(slow)]
        syncs = build_vc.sync_events // 2

        def replay_wall() -> float:
            replay = VectorClockSanitizer()
            lock = replay.make_lock("perf.commit")
            t0 = time.perf_counter()
            for name in names:
                with lock:
                    replay.record_access(name, write=True)
            for _ in range(build_vc.fastpath_hits):
                with lock:
                    replay.record_access("perf.store.hot", write=True)
            for i in range(syncs):
                replay.thread_fork(f"perf-w{i}")
                replay.thread_join(f"perf-w{i}")
            return time.perf_counter() - t0

        # Best of three, like the plain wall it is divided by.
        hook_wall = min(replay_wall() for _ in range(3))
        fraction = hook_wall / plain
    finally:
        _check_hooks.set_active(ambient)

    return {
        "plain_build_seconds": _metric(plain, "time", "s"),
        "sanitized_build_seconds": _metric(sanitized, "time", "s"),
        # End-to-end wall ratio, informational only (see docstring).
        "sanitizer_overhead_ratio": _metric(
            sanitized / plain, "time", "x", tol=0.5
        ),
        "sanitizer_hook_fraction": _metric(fraction, "time", "x", tol=1.0),
        # The hard gate: exact counter, 1.0 iff overhead <= 10%.
        "overhead_within_gate": _metric(
            1.0 if fraction <= 0.10 else 0.0, "counter", "bool"
        ),
        "vc_races": _metric(
            float(len(build_vc.reports)), "counter", "races"
        ),
        # Commit traffic tracks labels-added, which is interleaving-
        # dependent at p=4 (same reason thread_build_p4 widens labels).
        "vc_accesses": _metric(
            float(build_vc.accesses_tracked), "counter", "accesses",
            tol=0.5,
        ),
        "vc_fastpath_hits": _metric(
            float(build_vc.fastpath_hits), "counter", "accesses",
            tol=0.5,
        ),
        "vc_sync_events": _metric(
            float(build_vc.sync_events), "counter", "events"
        ),
        "hooks_active_when_off": _metric(
            hooks_active, "counter", "bool"
        ),
    }


def _wl_telemetry_overhead(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """The telemetry relay must cost the threaded build <5%.

    Same direct-measurement reasoning as the other overhead gates: a 5%
    bound cannot be asserted by differencing two whole-build walls
    under ±10% run noise.  Attaching the relay adds no call on the
    worker thread: the events it ships are the flight recorder's
    always-on records, and the delta collection, span scan, ring read
    and socket write all ride the relay's flush thread.  So the
    per-root commit record, :func:`repro.obs.flightrec.record`
    ``("label_commit", ...)`` (a dict build and a ring append), is
    timed directly, the build's root count times, min-of-3, and divided
    by the plain build wall.  ``overhead_within_gate`` (exact counter)
    fails the comparison outright if that fraction exceeds 0.05.

    The end-to-end leg builds once with the full plane live — in-process
    :class:`~repro.obs.relay.Collector` on a *private* registry (merging
    into the registry the client diffs would re-ship every merged
    increment forever), relay client on the process registry — and
    pins the merge exact: the collector's merged
    ``parapll_build_roots_total`` must equal the source registry's own
    cumulative total (shipped deltas always sum to the source's truth —
    see :class:`repro.obs.bus.MetricsDelta`), every committed root must
    arrive as one ``label_commit`` event (``relayed_commits``), and
    there must be zero drops, zero malformed frames and zero merge
    errors.
    """
    import gc

    from repro.obs import flightrec as _flightrec
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.relay import Collector, RelayClient
    from repro.parallel.threads import build_parallel_threads

    n = ctx.graph.num_vertices

    def plain_wall() -> float:
        t0 = time.perf_counter()
        build_parallel_threads(ctx.graph, 4, policy="dynamic")
        return time.perf_counter() - t0

    # Same GC discipline as check_overhead: automatic gen2 passes over
    # the suite's accumulated heap would dominate the measured fraction.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        plain = min(plain_wall() for _ in range(3))

        # End-to-end: one build with the relay plane fully live.
        collector = Collector(
            "127.0.0.1", 0, registry=MetricsRegistry()
        ).start()
        try:
            client = RelayClient(
                collector.host,
                collector.port,
                rank=0,
                flush_interval=0.05,
            )
            try:
                t0 = time.perf_counter()
                build_parallel_threads(ctx.graph, 4, policy="dynamic")
                relayed = time.perf_counter() - t0
            finally:
                client.close()
            # close() flushed synchronously; wait for the collector's
            # reader thread to drain the socket and see EOF.
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                stats = collector.stats()
                sources = stats["sources"]
                if sources and not any(
                    s["connected"] for s in sources.values()
                ):
                    break
                time.sleep(0.01)
            stats = collector.stats()
            expected_roots = _counter_value("parapll_build_roots_total")
            merged_roots = 0.0
            for metric in collector.registry.snapshot():
                if metric["name"] == "parapll_build_roots_total":
                    merged_roots = sum(
                        float(s["value"]) for s in metric["series"]
                    )
            relayed_commits = sum(
                1 for e in collector.events() if e["kind"] == "label_commit"
            )
        finally:
            collector.close()

        # The per-root commit record, the build's root count times.
        def hook_wall() -> float:
            record = _flightrec.record
            t0 = time.perf_counter()
            for root in range(n):
                record("label_commit", worker=0, root=root, labels=8)
            return time.perf_counter() - t0

        hook = min(hook_wall() for _ in range(3))
        fraction = hook / plain
    finally:
        if gc_was_enabled:
            gc.enable()

    return {
        "plain_build_seconds": _metric(plain, "time", "s"),
        "relay_build_seconds": _metric(relayed, "time", "s"),
        # End-to-end wall ratio, informational only (see docstring).
        "relay_overhead_ratio": _metric(relayed / plain, "time", "x", tol=0.5),
        "relay_hook_fraction": _metric(fraction, "time", "x", tol=1.0),
        # The hard gate: exact counter, 1.0 iff overhead <= 5%.
        "overhead_within_gate": _metric(
            1.0 if fraction <= 0.05 else 0.0, "counter", "bool"
        ),
        # Merge exactness: the collector's merged counter equals the
        # source registry's cumulative total, and every root committed
        # while the relay was attached arrived as one label_commit.
        "merge_exact": _metric(
            1.0 if merged_roots == expected_roots else 0.0,
            "counter",
            "bool",
        ),
        "relayed_commits": _metric(
            float(relayed_commits), "counter", "events"
        ),
        "relay_drops": _metric(float(stats["dropped"]), "counter", "events"),
        "malformed_frames": _metric(
            float(stats["malformed"]), "counter", "frames"
        ),
        "merge_errors": _metric(
            float(stats["merge_errors"]), "counter", "errors"
        ),
    }


def default_workloads() -> List[Workload]:
    """The standard PerfSuite (one Workload per execution mode)."""
    return [
        Workload("serial_build", _wl_serial_build),
        Workload("thread_build_p1", _wl_thread_build(1)),
        Workload("thread_build_p4", _wl_thread_build(4)),
        Workload("build_multicore", _wl_multicore_build),
        Workload("sim_build_p4", _wl_sim_build, timeline=_wl_sim_build_timeline),
        Workload("cluster_build_q2c1", _wl_cluster_build),
        Workload("query_batch", _wl_query_batch),
        Workload("batch_query", _wl_batch_query),
        Workload("server_roundtrip", _wl_server_roundtrip),
        Workload("index_invariants", _wl_index_invariants),
        Workload("explain_overhead", _wl_explain_overhead),
        Workload("audit_overhead", _wl_audit_overhead),
        Workload("serve_replay", _wl_serve_replay),
        Workload("qlog_overhead", _wl_qlog_overhead),
        Workload("check_overhead", _wl_check_overhead),
        Workload("telemetry_overhead", _wl_telemetry_overhead),
    ]


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------
def run_suite(
    repeats: int = 3,
    scale: float = 1.0,
    seed: int = 42,
    dataset: str = "Gnutella",
    tag: str = "dev",
    workloads: Optional[Sequence[Workload]] = None,
    include_timeline: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the PerfSuite and return the BENCH document.

    Each workload runs *repeats* times with the metrics registry reset
    per run; per-metric medians and extremes are recorded.  Counters are
    deterministic, so their median doubles as an exact fingerprint of
    the algorithmic work done.

    Raises:
        PerfError: for a non-positive repeat count.
    """
    from repro import obs

    if repeats < 1:
        raise PerfError("repeats must be >= 1")
    ctx = PerfContext(scale=scale, seed=seed, dataset=dataset)
    workloads = list(workloads) if workloads is not None else default_workloads()

    results: Dict[str, Any] = {}
    for wl in workloads:
        if progress:
            progress(f"running {wl.name} x{repeats}")
        runs: List[Dict[str, Dict[str, Any]]] = []
        for _ in range(repeats):
            obs.reset()
            runs.append(wl.fn(ctx))
        obs.reset()
        metrics: Dict[str, Any] = {}
        for name in runs[0]:
            samples = [run[name]["value"] for run in runs if name in run]
            meta = runs[0][name]
            metrics[name] = {
                "median": statistics.median(samples),
                "min": min(samples),
                "max": max(samples),
                "runs": samples,
                "kind": meta["kind"],
                "unit": meta["unit"],
                "tol": meta["tol"],
            }
        entry: Dict[str, Any] = {"metrics": metrics}
        if include_timeline and wl.timeline is not None:
            entry["timeline"] = wl.timeline(ctx)
        results[wl.name] = entry

    return {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "environment": environment_metadata(),
        "config": {
            "repeats": repeats,
            "scale": scale,
            "seed": seed,
            "dataset": dataset,
        },
        "workloads": results,
    }


# ----------------------------------------------------------------------
# BENCH file IO
# ----------------------------------------------------------------------
def write_bench(doc: Dict[str, Any], path: str) -> None:
    """Write a BENCH document as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_bench(path: str) -> Dict[str, Any]:
    """Read and validate a BENCH document.

    Raises:
        PerfError: for unreadable files or unknown schema versions.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PerfError(f"cannot read benchmark file {path!r}: {exc}")
    if not isinstance(doc, dict) or "schema" not in doc:
        raise PerfError(f"{path!r} is not a BENCH file (no schema key)")
    if doc["schema"] != BENCH_SCHEMA:
        raise PerfError(
            f"{path!r} has schema {doc['schema']!r}; this build reads "
            f"{BENCH_SCHEMA!r}"
        )
    if "workloads" not in doc:
        raise PerfError(f"{path!r} has no workloads section")
    return doc


def render_bench(doc: Dict[str, Any]) -> str:
    """Terminal summary of one BENCH document (``parapll perf report``)."""
    env = doc.get("environment", {})
    cfg = doc.get("config", {})
    sha = env.get("git_sha") or "unknown"
    lines = [
        f"benchmark {doc.get('tag', '?')}  ({doc.get('schema')})",
        f"  recorded {env.get('timestamp_utc', '?')}  git {sha[:12]}",
        f"  python {env.get('python', '?')} on {env.get('platform', '?')}"
        f"  ({env.get('cpu_count', '?')} cpus)",
        f"  repeats={cfg.get('repeats', '?')} scale={cfg.get('scale', '?')}"
        f" dataset={cfg.get('dataset', '?')}",
    ]
    for name in sorted(doc.get("workloads", {})):
        entry = doc["workloads"][name]
        lines.append(f"{name}:")
        for metric in sorted(entry.get("metrics", {})):
            m = entry["metrics"][metric]
            value = m["median"]
            shown = (
                f"{value:.5f}" if isinstance(value, float) and value < 1e4
                else f"{value:.0f}"
            )
            lines.append(
                f"  {metric:<26} {shown:>14} {m['unit']:<7} "
                f"[{m['kind']}, tol {m['tol']:.0%}]"
            )
        timeline = entry.get("timeline")
        if timeline:
            lines.append(
                f"  timeline: chain {timeline['chain_tasks']} tasks "
                f"covering {timeline['chain_coverage']:.0%} of "
                f"{timeline['makespan_sim_seconds']:.4f} sim-s"
            )
            for w in timeline.get("workers", []):
                lines.append(
                    f"    {w['lane']:<10} busy {w['busy']:6.1%}  "
                    f"lock-wait {w['lock_wait']:6.1%}  idle {w['idle']:6.1%}"
                )
    return "\n".join(lines)
