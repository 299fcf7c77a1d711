"""The performance suite: deterministic fingerprints of a revision's work.

One ``BENCH_<tag>.json`` file pins what this codebase *does* on a fixed
seeded graph: operation counters (kind ``counter``), simulated seconds
from the discrete-event executor (kind ``sim``), 0/1 exactness pins and
one ``<hook>_over_budget`` verdict per observability hook.  Each
workload runs ``repeats`` times with the median and extremes recorded,
plus environment metadata.  :mod:`repro.obs.regression` fails any
metric that moved beyond its tolerance, in either direction.

Wall time is not recorded: it belongs to the machine and its load, and
the ``bench/`` ledger owns every wall-time claim (alternating paired
runs with stated bounds).  The one clock read left is inside
``hook_overhead``, reduced there to a 0/1 budget verdict.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.env import environment_metadata

__all__ = [
    "BENCH_SCHEMA",
    "PerfError",
    "Workload",
    "HOOKS",
    "default_workloads",
    "run_suite",
    "read_bench",
    "write_bench",
    "render_bench",
    "DEFAULT_TOLERANCES",
]

BENCH_SCHEMA = "parapll-bench/2"

#: Default relative tolerances per metric kind.  Counters are exact
#: unless a row widens its own (commit interleaving at p > 1).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "sim": 0.02,
    "counter": 0.0,
}

#: Absolute slack per kind: differences below this never count as a
#: change (guards float drift in simulated seconds).
ABS_EPSILON: Dict[str, float] = {
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


def _count(value: float, unit: str, tol: float = 0.0) -> Dict[str, Any]:
    return _metric(value, "counter", unit, tol)


def _flag(cond: bool) -> Dict[str, Any]:
    """A 0/1 pin: 1.0 when *cond* holds."""
    return _count(1.0 if cond else 0.0, "bool")


def _registry_count(name: str, unit: str, tol: float = 0.0) -> Dict[str, Any]:
    """A counter row read from the obs registry's metric *name*."""
    return _count(_counter_value(name), unit, tol)


def _counter_value(name: str, registry: Any = None) -> float:
    """Total of metric *name* over its series (a histogram counts its
    sum), in *registry* or the process registry."""
    from repro.obs.metrics import get_registry

    metric = (registry if registry is not None else get_registry()).get(name)
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

        self.seed = seed
        self.graph = load_dataset(dataset, scale=scale, seed=seed)

    def pairs(self, offset: int, count: int):
        """*count* seeded (s, t) vertex pairs, an ``int64[count, 2]``."""
        import numpy as np

        rng = np.random.default_rng(self.seed + offset)
        return rng.integers(0, self.graph.num_vertices, size=(count, 2))


@dataclass
class Workload:
    """One named, repeatable measurement: ``fn(ctx)`` returns one run's
    metric dict (called once per repeat, obs registry freshly reset);
    ``timeline(ctx)``, when given, a JSON-safe per-worker summary
    recorded once per suite run."""

    name: str
    fn: Callable[[PerfContext], Dict[str, Dict[str, Any]]]
    timeline: Optional[Callable[[PerfContext], Dict[str, Any]]] = None


# ----------------------------------------------------------------------
# Workload implementations
# ----------------------------------------------------------------------
def _build_counters(tol: float = 0.0) -> Dict[str, Dict[str, Any]]:
    """The build-side operation counters, read from the registry."""
    units = {"heap_pops": "ops", "prune_hits": "ops", "labels": "entries"}
    return {
        row: _registry_count(f"parapll_build_{row}_total", unit, tol)
        for row, unit in units.items()
    }


def _wl_serial_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Serial build counters, plus a full audit of the index built.

    A serial build is canonical by construction, so the audit's
    dominated count is pinned to zero: a nonzero count means the builder
    or the audit broke.
    """
    from repro.core.index import PLLIndex
    from repro.obs.audit import audit_index

    index = PLLIndex.build(ctx.graph)
    out = _build_counters()
    report = audit_index(index, source="perf")
    out["dominated_entries"] = _count(report["dominated"]["count"], "entries")
    out["label_entries"] = _count(report["total_entries"], "entries")
    return out


def _wl_thread_build(p: int):
    def run(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
        from repro.check.invariants import verify_index
        from repro.parallel.threads import build_parallel_threads

        index = build_parallel_threads(ctx.graph, p, policy="dynamic")
        # With p > 1, prune effectiveness depends on commit
        # interleaving, so label/pop counts are noisy by nature.
        out = _build_counters(tol=0.0 if p == 1 else 0.5)
        out["roots"] = _registry_count("parapll_build_roots_total", "roots")
        if p == 1:
            return out
        # ``parapll check index`` smoke: a concurrency regression that
        # corrupts labels (rather than slowing them down) still fails
        # the gate.  Every failed check records a violation, so
        # ``invariant_violations == 0`` is the verifier's verdict.
        report = verify_index(index, samples=32, seed=ctx.seed)
        out["invariant_violations"] = _count(
            len(report.violations), "violations"
        )
        # Redundant labels are legal but worth watching: a sustained
        # order-of-magnitude jump means pruning got much less
        # effective.  Commit interleaving makes the count swing ~2.5x
        # run to run, hence the very loose tolerance.
        out["redundant_labels"] = _count(
            report.redundant_labels, "entries", tol=3.0
        )
        out["sampled_pairs"] = _count(report.sampled_pairs, "pairs")
        return out

    return run


def _wl_multicore_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Serial vs. 4-process shared-memory build on the perf graph.

    Every root must be committed exactly once and the procs index must
    answer a query sample exactly as the serial one does.  The speedup
    is a wall-time claim, measured by the ``bench/`` ledger.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.parallel.procs import build_parallel_procs

    serial = PLLIndex.build(ctx.graph)
    procs = build_parallel_procs(ctx.graph, 4, policy="dynamic")
    pairs = ctx.pairs(0, 256)
    exact = np.allclose(
        serial.distance_batch(pairs),
        procs.distance_batch(pairs),
        equal_nan=True,
    )
    return {
        "roots_committed": _registry_count(
            "parapll_worker_roots_total", "roots"
        ),
        "query_exact": _flag(bool(exact)),
    }


def _wl_sim_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    from repro.sim.executor import simulate_intra_node

    _index, run = simulate_intra_node(
        ctx.graph,
        4,
        policy="dynamic",
        jitter=0.15,
        worker_jitter=0.25,
        seed=ctx.seed + 4,
    )
    out = {
        "makespan_sim_seconds": _metric(run.makespan, "sim", "s"),
        "computation_sim_seconds": _metric(
            run.computation_time, "sim", "s"
        ),
    }
    out.update(_build_counters())
    return out


#: Per-worker fields of the recorded timeline (fractions of the makespan).
_LANE_KEYS = ("lane", "tasks", "busy", "lock_wait", "idle")


def _wl_sim_build_timeline(ctx: PerfContext) -> Dict[str, Any]:
    """Traced sim build reduced to per-worker fractions (JSON-safe)."""
    from repro import obs
    from repro.obs.flightrec import reserve_for_build
    from repro.obs.timeline import analyze_critical_path

    previous = obs.current_config()
    recorder = obs.get_recorder()
    recorder.clear()
    reserve_for_build(ctx.graph.num_vertices)
    obs.configure(tracing=True)
    try:
        _wl_sim_build(ctx)
        report = analyze_critical_path(task_names=("root_search",))
    finally:
        obs.configure(tracing=previous.tracing)
        recorder.clear()
    return {
        "makespan_sim_seconds": report.makespan,
        "chain_tasks": len(report.chain),
        "chain_seconds": report.chain_seconds,
        "chain_coverage": report.chain_coverage,
        "workers": [
            {key: getattr(lane, key) for key in _LANE_KEYS}
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
        "sync_entries": _registry_count(
            "parapll_cluster_sync_entries", "entries"
        ),
        "sync_bytes": _registry_count("parapll_cluster_bytes_total", "B"),
        "redundant_labels": _registry_count(
            "parapll_cluster_redundant_labels_total", "entries"
        ),
    }


#: Pairs each query-agreement check compares against the scalar path.
BATCH_PAIRS = 10_000
EXPLAIN_PAIRS = 100


def _wl_batch_query(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Query agreement: batch kernel and EXPLAIN vs the scalar query.

    Each ``*_matches`` counts answers equal bit for bit to the scalar
    ``query_distance`` on the same pairs: the batch kernel is exact, and
    EXPLAIN, a separate diagnostic path, must reproduce the query.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.core.paths import isclose_distance
    from repro.core.query import query_distance, query_distance_batch

    index = PLLIndex.build(ctx.graph)
    store = index.store
    pairs = ctx.pairs(23, BATCH_PAIRS)
    scalar = np.array(
        [query_distance(store, int(s), int(t)) for s, t in pairs]
    )
    batch_matches = int(np.sum(query_distance_batch(store, pairs) == scalar))
    # atol=0.0 makes isclose_distance an exact-equality test (with the
    # INF sentinel handled).
    explain_matches = sum(
        1
        for s, t in ctx.pairs(17, EXPLAIN_PAIRS).tolist()
        if isclose_distance(
            query_distance(store, s, t), index.explain(s, t).distance, atol=0.0
        )
    )
    return {
        "batch_matches": _count(batch_matches, "pairs"),
        "explain_matches": _count(explain_matches, "pairs"),
    }


def _wl_serve_replay(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Seeded closed-loop replay against a live server, gated.

    A deterministic Zipf-skewed request sequence (same seed ⇒ same
    pairs, every run) pushed through the real TCP stack by concurrent
    clients.  Replaying a healthy index through a healthy server must
    complete every request (a client thread that dies leaves its share
    uncounted, not errored), with no error and no SLO target breached.
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
    return {
        "requests": _count(report["requests"], "requests"),
        "errors": _count(report["outcomes"].get("error", 0), "requests"),
        "breached_targets": _count(
            len(report["verdict"]["breached"]), "targets"
        ),
    }


def _wl_telemetry_relay(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """One threaded build with the telemetry plane fully live.

    The collector merges into a *private* registry (merging into the
    one the client diffs would re-ship every merged increment forever).
    Its merged ``parapll_build_roots_total`` must equal the source's own
    total (shipped deltas sum to the source's truth), every committed
    root must arrive as one ``label_commit`` event, and nothing may be
    dropped, malformed or fail to merge.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.relay import Collector, RelayClient
    from repro.parallel.threads import build_parallel_threads

    with Collector("127.0.0.1", 0, registry=MetricsRegistry()) as collector:
        client = RelayClient(
            collector.host, collector.port, rank=0, flush_interval=0.05
        )
        try:
            build_parallel_threads(ctx.graph, 4, policy="dynamic")
        finally:
            client.close()
    # The client's close() flushed synchronously, and the collector's
    # close() joined its reader once the socket drained to EOF.
    stats = collector.stats()
    merged_roots = _counter_value(
        "parapll_build_roots_total", collector.registry
    )
    relayed_commits = sum(
        1 for e in collector.events() if e["kind"] == "label_commit"
    )
    return {
        "merge_exact": _flag(
            merged_roots == _counter_value("parapll_build_roots_total")
        ),
        "relayed_commits": _count(relayed_commits, "events"),
        "relay_drops": _count(stats["dropped"], "events"),
        "malformed_frames": _count(stats["malformed"], "frames"),
        "merge_errors": _count(stats["merge_errors"], "errors"),
    }


# ----------------------------------------------------------------------
# Hook overhead: one table, one runner
# ----------------------------------------------------------------------
# A 5-10% bound cannot be asserted by differencing a hooked and a plain
# whole-path wall under ±10% run noise.  So each hook's added work is
# replayed alone, on the hooked path's schedule, and divided by the wall
# of a fixed reference loop timed alternately with it.  A budget against
# the plain path itself would flip when the program made that path
# faster, with the hook unchanged.  ``replay(ctx) -> (arm, pins)``:
# ``arm()`` builds fresh hook state untimed and returns the timed loop,
# which leaves nothing installed.

#: Best-of-N for every timed wall, reference and hook alike.
TIMED_REPEATS = 5

#: Iterations of :func:`_reference_loop`.
REFERENCE_ITERS = 50_000


def _reference_loop() -> None:
    """The yardstick of every hook budget: a fixed amount of interpreter
    work of the kind hooks do (small dicts, list appends), calling no
    program code, so no change to the program makes it faster."""
    sink: List[Dict[str, int]] = []
    for i in range(REFERENCE_ITERS):
        sink.append({"i": i, "k": i & 7})
        if len(sink) == 64:
            sink.clear()


def _best_walls(
    reference: Callable[[], Any], arm: Callable[[], Callable[[], Any]]
) -> List[float]:
    """Best of :data:`TIMED_REPEATS` walls of *reference* and of
    ``arm()()``, alternating, so that both see the same machine load;
    only the call ``arm`` returns is timed."""
    best = [float("inf")] * 2
    for _ in range(TIMED_REPEATS):
        for i, fn in enumerate((reference, arm())):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _serve_pairs(ctx: PerfContext) -> List[List[int]]:
    return ctx.pairs(31, 1000).tolist()


def _replay_buildmon(ctx: PerfContext):
    """One ``root_done`` per root on a monitor with the build's sampling
    schedule.  A monitored build pins that schedule (``progress_events``),
    so a monitor that starts emitting per root fails with no clock."""
    from repro.core.serial import build_serial
    from repro.obs import buildmon as _buildmon
    from repro.types import SearchStats

    n = ctx.graph.num_vertices

    def monitor() -> _buildmon.BuildMonitor:
        return _buildmon.BuildMonitor(
            total_roots=n,
            sample_every=max(1, n // 20),
            interval_seconds=None,
            keep_per_root=False,
        )

    probe = monitor()
    with _buildmon.monitored(probe):
        build_serial(ctx.graph)
    stats = SearchStats(root=0, settled=20, pruned=8, labels_added=12)

    def arm() -> Callable[[], None]:
        hook = monitor()

        def loop() -> None:
            for root in range(n):
                hook.root_done(0, root, stats=stats)

        return loop

    return arm, {"progress_events": _count(len(probe.events), "events")}


#: The qlog budget holds at the recommended always-on sampling rate;
#: full capture is for short diagnostic windows.
QLOG_SAMPLE = 0.05


def _replay_qlog(ctx: PerfContext):
    """Per served request, one :func:`repro.obs.qlog.record_query` on an
    installed recorder plus one :meth:`~repro.obs.slo.SLOTracker.record`.
    ``qlog_records`` pins the seeded sampler's output for one pass."""
    from repro.obs import qlog as _qlog
    from repro.obs.slo import SLOTracker

    pairs = _serve_pairs(ctx)
    tracker = SLOTracker()

    def recorder() -> _qlog.QueryLogRecorder:
        return _qlog.QueryLogRecorder(sample=QLOG_SAMPLE, seed=ctx.seed)

    def serve(rec: _qlog.QueryLogRecorder) -> None:
        _qlog.install(rec)
        try:
            for s, t in pairs:
                _qlog.record_query("distance", s, t, 10.0)
                tracker.record(1e-5, ok=True)
        finally:
            _qlog.uninstall()

    probe = recorder()
    serve(probe)

    def arm() -> Callable[[], None]:
        return functools.partial(serve, recorder())

    return arm, {"qlog_records": _count(probe.sampled, "records")}


def _replay_vc(ctx: PerfContext):
    """One build under a fresh vector-clock sanitizer counts the real
    hook traffic and must finish race-free; the replay drives that
    schedule against a fresh, uninstalled engine.  It keeps the build's
    split of accesses: a fresh location per slow-path access (a
    one-location replay would ride the fast path and dodge the conflict
    checks), then the FastTrack same-epoch population as writes to one
    hot location.  The split itself is scheduler noise (10 to ~1,100
    fast-path hits over builds of one graph), so only the total is
    pinned."""
    from repro.check import hooks as _check_hooks
    from repro.check.vectorclock import VectorClockSanitizer
    from repro.parallel.threads import build_parallel_threads

    hooks_active = _check_hooks.get_active() is not None
    build_vc = VectorClockSanitizer()
    with build_vc:
        build_parallel_threads(ctx.graph, 4, policy="dynamic")
    fast = build_vc.fastpath_hits
    slow = [f"perf.store.{i}" for i in range(build_vc.accesses_tracked - fast)]
    syncs = build_vc.sync_events // 2

    def arm() -> Callable[[], None]:
        replay = VectorClockSanitizer()
        lock = replay.make_lock("perf.commit")

        def loop() -> None:
            for name in slow:
                with lock:
                    replay.record_access(name, write=True)
            for _ in range(fast):
                with lock:
                    replay.record_access("perf.store.hot", write=True)
            for i in range(syncs):
                replay.thread_fork(f"perf-w{i}")
                replay.thread_join(f"perf-w{i}")

        return loop

    return arm, {
        "vc_races": _count(len(build_vc.reports), "races"),
        # Commit traffic tracks labels-added, which is interleaving-
        # dependent at p=4 (same reason thread_build_p4 widens labels).
        "vc_accesses": _count(build_vc.accesses_tracked, "accesses", tol=0.5),
        "vc_sync_events": _count(build_vc.sync_events, "events"),
        # With no sanitizer installed the hooks must dispatch to nothing.
        "hooks_active_when_off": _flag(hooks_active),
    }


def _replay_flightrec(ctx: PerfContext):
    """The per-root commit record, a dict build and a ring append: the
    only telemetry work on a worker thread (delta collection, ring reads
    and socket writes ride the relay's flush thread)."""
    from repro.obs import flightrec as _flightrec

    n = ctx.graph.num_vertices
    record = _flightrec.record

    def loop() -> None:
        for root in range(n):
            record("label_commit", worker=0, root=root, labels=8)

    return (lambda: loop), {}


#: One entry per hook: name, replay, and its budget in walls of
#: :func:`_reference_loop`.  Each budget is the allowance the hook had as
#: a fraction of the plain path it rides (buildmon 5% of a serial build,
#: qlog 5% of 1,000 served requests, vc 10% and flightrec 5% of a p=4
#: threads build), times that path's median wall in reference walls
#: over seven runs on the suite's default graph (Gnutella, scale 1.0):
#: 2.958, 10.61, 14.73 and 13.50.  See CHANGES.md.
HOOKS = (
    ("buildmon", _replay_buildmon, 0.147),
    ("qlog", _replay_qlog, 0.530),
    ("vc", _replay_vc, 1.47),
    ("flightrec", _replay_flightrec, 0.674),
)


def _wl_hook_overhead(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Every hook against its budget: ``<hook>_over_budget`` reads 1
    when the replay's best wall exceeds ``budget`` times the reference
    loop's best wall, else 0; plus each hook's pins."""
    import gc
    from concurrent.futures import ThreadPoolExecutor

    from repro.check import hooks as _check_hooks

    out: Dict[str, Dict[str, Any]] = {}
    with contextlib.ExitStack() as stack:
        # Freeze the garbage collector across the timed sections: by
        # this point the suite has built a dozen indexes, and automatic
        # gen2 passes scan that whole heap mid-loop, so the fraction
        # would track heap size (and the workload's position in the
        # suite), not the hook.
        if gc.isenabled():
            gc.disable()
            stack.callback(gc.enable)
        # An ambient sanitizer would inflate every wall.
        stack.callback(_check_hooks.set_active, _check_hooks.get_active())
        _check_hooks.set_active(None)
        # Time on a worker thread, where a build's hooks run: the vc
        # detector captures up to 8 stack frames per access, so at the
        # caller's depth (``python -m repro.cli`` sits deeper than a
        # script) the replay's cost would depend on the caller.
        timer = stack.enter_context(ThreadPoolExecutor(1))
        for name, replay, budget in HOOKS:
            arm, pins = replay(ctx)
            walls = timer.submit(_best_walls, _reference_loop, arm).result()
            out.update(pins)
            out[f"{name}_over_budget"] = _flag(walls[1] > budget * walls[0])
    return out


def default_workloads() -> List[Workload]:
    """The standard PerfSuite (one Workload per execution mode)."""
    return [
        Workload("serial_build", _wl_serial_build),
        Workload("thread_build_p1", _wl_thread_build(1)),
        Workload("thread_build_p4", _wl_thread_build(4)),
        Workload("build_multicore", _wl_multicore_build),
        Workload("sim_build_p4", _wl_sim_build, timeline=_wl_sim_build_timeline),
        Workload("cluster_build_q2c1", _wl_cluster_build),
        Workload("batch_query", _wl_batch_query),
        Workload("serve_replay", _wl_serve_replay),
        Workload("telemetry_relay", _wl_telemetry_relay),
        Workload("hook_overhead", _wl_hook_overhead),
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
        if wl.timeline is not None:
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
