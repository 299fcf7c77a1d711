"""Build workloads: index builds, each in a fresh process."""

from __future__ import annotations

import contextlib
import glob
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from ledger import BenchError
from ledger.inputs import WorkDir
from ledger.proc import Child, Cores, TreePeak
from ledger.reference import SpeedLog, at_quiet_speed
from ledger.trace import merge, residual_frac

#: Fewest builds a run reports a median over.
MIN_BUILDS = 3

#: A traced build whose layers leave more than this share of its wall
#: time unexplained fails the run.
MAX_RESIDUAL = 0.10

CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class BuildSpec:
    name: str
    graph: str
    backend: str
    procs: int


@contextlib.contextmanager
def measuring(wd: WorkDir, spec: BuildSpec) -> Iterator[Tuple[Cores, SpeedLog]]:
    """This process on the first CPU, serial builds alone on the last,
    and a speed sampler on each CPU the workload's builds run on."""
    with Cores() as cores:
        cpus = cores.allowed if spec.backend == "procs" else cores.others[-1:]
        with SpeedLog(wd.repo, cpus) as log:
            yield cores, log


def one_build(
    wd: WorkDir, spec: BuildSpec, seed: int, cores: Cores, trace_dir: str = ""
) -> Dict[str, Any]:
    """Spawn one build child; returns its result plus ``cpu`` (a serial
    build's CPU, else None), ``setup_window`` (spawn to graph loaded) and
    ``peak_rss_mb`` (summed over the process tree, sampled from outside
    during the build)."""
    argv = [
        "-m", "ledger.child_build",
        "--graph", wd.graph_path(spec.graph),
        "--truth", wd.truth_path(spec.graph, seed),
        "--backend", spec.backend,
        "--procs", str(spec.procs),
    ]
    if trace_dir:
        argv += ["--trace-dir", trace_dir]
    cpus = cores.allowed if spec.backend == "procs" else cores.others[-1:]
    child = Child(argv, wd.repo, wd.repo, cpus=cpus)
    peak = None
    try:
        child.expect({"ready": True}, CHILD_TIMEOUT_S)
        ready_at = time.monotonic()
        peak = TreePeak(child.pid)
        child.expect({"built": True}, CHILD_TIMEOUT_S)
        # The child holds until told to go on, so this is the build's peak.
        peak_mb = peak.close()
        child.send_line("check")
        result = json.loads(child.readline(CHILD_TIMEOUT_S))
    finally:
        if peak is not None:
            peak.close()
        code = child.stop()
    if code != 0:
        raise BenchError(f"build child exited with code {code}")
    result["cpu"] = None if spec.backend == "procs" else cpus[0]
    result["setup_window"] = (child.spawned, ready_at)
    result["peak_rss_mb"] = peak_mb
    return result


def at_quiet(build: Dict[str, Any], log: SpeedLog) -> Dict[str, Any]:
    """The build with ``setup_q`` and ``build_q``: its set-up CPU seconds
    and its build time on a quiet host.  A serial build's CPU seconds
    scale by the speed of its CPU; a procs build's wall seconds by the
    mean speed of all CPUs, less the samplers' share of them."""
    cpu = build["cpu"]
    setup_speed = log.speed(*build["setup_window"], cpu=cpu)
    window = (build["build_start"], build["build_end"])
    if cpu is None:
        build_q = at_quiet_speed(build["build_s"], log.speed(*window, wall=True))
    else:
        build_q = at_quiet_speed(build["build_cpu_s"], log.speed(*window, cpu=cpu))
    return {
        **build,
        "setup_q": at_quiet_speed(build["setup_cpu_s"], setup_speed),
        "build_q": build_q,
    }


def run(
    wd: WorkDir, spec: BuildSpec, seed: int, seconds: float
) -> Dict[str, Any]:
    """Untraced builds until *seconds* are spent (at least MIN_BUILDS)."""
    wd.truth(spec.graph, seed)
    samples: List[Dict[str, Any]] = []
    with measuring(wd, spec) as (cores, log):
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            samples.append(one_build(wd, spec, seed, cores))
            last = time.monotonic() - t0
            spent = time.monotonic() - start
            if len(samples) >= MIN_BUILDS and spent + last > seconds:
                break
    return summarize([at_quiet(s, log) for s in samples])


def _median(samples: List[Dict[str, Any]], key: str) -> float:
    return float(statistics.median(s[key] for s in samples))


def summarize(samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    build_s = _median(samples, "build_q")
    failed = sum(1 for s in samples if s["mismatches"])
    return {
        "metrics": {
            "setup_s": _median(samples, "setup_q"),
            "p50_ms": build_s * 1e3,
            "throughput": samples[0]["n"] / build_s,
            "index_bytes": _median(samples, "index_bytes"),
            "peak_rss_mb": _median(samples, "peak_rss_mb"),
        },
        "attempted": len(samples),
        "failed": failed,
        "samples": {
            "builds": len(samples),
            "build_wall_s": [s["build_s"] for s in samples],
            "build_quiet_s": [s["build_q"] for s in samples],
            "setup_quiet_s": [s["setup_q"] for s in samples],
            "pairs_checked": sum(s["checked"] for s in samples),
            "pairs_wrong": sum(s["mismatches"] for s in samples),
        },
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_build(
    wd: WorkDir, spec: BuildSpec, seed: int, cores: Cores
) -> Dict[str, Any]:
    """One traced build; worker totals are merged under ``workers``."""
    trace_dir = wd.path(f"trace-{os.getpid()}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    try:
        result = one_build(wd, spec, seed, cores, trace_dir)
        parts = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "worker-*.json"))):
            with open(path, "r", encoding="utf-8") as fh:
                parts.append(json.load(fh))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    result["workers"] = merge(parts)
    result["worker_count"] = len(parts)
    return result


def _sim_speedup(wd: WorkDir, graph_name: str, procs: int) -> float:
    """The simulator's predicted speedup at *procs* workers: its p=1
    makespan over its p=procs makespan (cached per source hash)."""

    def make() -> Dict[str, Any]:
        from repro.sim.executor import simulate_intra_node

        graph, _info = wd.graph(graph_name)
        _i1, one = simulate_intra_node(graph, 1, policy="dynamic")
        _ip, many = simulate_intra_node(graph, procs, policy="dynamic")
        return {"makespan_1": one.makespan, "makespan_p": many.makespan}

    doc = wd.cached_json(f"sim-{graph_name}-p{procs}", make)
    return doc["makespan_1"] / doc["makespan_p"]


def run_traced(
    wd: WorkDir, spec: BuildSpec, seed: int, seconds: float
) -> Dict[str, Any]:
    """Alternate untraced and traced builds (one pair at least), with a
    serial build of the same graph in each round of a parallel workload,
    then derive every build-side per-layer metric from the traced ones."""
    wd.truth(spec.graph, seed)
    serial_spec = BuildSpec(spec.name, spec.graph, "serial", 1)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    serial: List[Dict[str, Any]] = []
    with measuring(wd, spec) as (cores, log):
        start = time.monotonic()
        while not traced or time.monotonic() - start < seconds / 2:
            plain.append(one_build(wd, spec, seed, cores))
            traced.append(traced_build(wd, spec, seed, cores))
            if spec.backend == "procs":
                serial.append(one_build(wd, serial_spec, seed, cores))
    plain, traced, serial = (
        [at_quiet(s, log) for s in group] for group in (plain, traced, serial)
    )
    layers = build_layers(traced, plain)
    if serial:
        entries = statistics.median(s["entries"] for s in plain)
        serial_entries = serial[0]["entries"]
        real = _median(serial, "build_q") / _median(plain, "build_q")
        sim = _sim_speedup(wd, spec.graph, spec.procs)
        layers.update({
            "procs.redundant_entries": entries - serial_entries,
            "procs.useful_label_frac": serial_entries / entries,
            "procs.speedup_vs_serial": real,
            "procs.sim_speedup": sim,
            "procs.speedup_vs_sim": real / sim,
        })
    everything = plain + traced + serial
    failed = sum(1 for s in everything if s["mismatches"])
    layers["error_frac"] = failed / len(everything)
    residual = layers["layers.residual_frac"]
    return {
        "layers": layers,
        "attempted": len(everything),
        "failed": failed,
        "residual_ok": residual <= MAX_RESIDUAL,
        "samples": {
            "plain_builds": len(plain),
            "traced_builds": len(traced),
            "serial_builds": len(serial),
        },
    }


def build_layers(
    traced: List[Dict[str, Any]], plain: List[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-layer metrics of the median-wall traced build."""
    t = sorted(traced, key=lambda s: s["wall_s"])[len(traced) // 2]
    sec = t["totals"]["seconds"]
    calls = t["totals"]["calls"]
    w = t["workers"]
    wsec, wcnt = w["seconds"], w["counts"]
    cnt = dict(t["totals"]["counts"])
    for name, value in wcnt.items():
        cnt[name] = cnt.get(name, 0) + value
    search_s = sec.get("search", 0.0) + wsec.get("search", 0.0)
    roots = cnt.get("search.roots", 0)
    settled = cnt.get("search.settled", 0)
    cal = t["calibration"]
    worker_busy = sum(
        wsec.get(k, 0.0)
        for k in ("engine_init", "search", "sync", "send", "telemetry")
    )
    worker_idle = wsec.get("recv", 0.0)
    in_procs = t["worker_count"] > 0
    messages = calls.get("recv", 0) if in_procs else 0
    plain_s = _median(plain, "build_q")
    traced_s = _median(traced, "build_q")
    return {
        "graph.load_s": sec.get("graph_load", 0.0),
        "order.s": sec.get("order", 0.0),
        "engine.init_s": sec.get("engine_init", 0.0) + wsec.get("engine_init", 0.0),
        "search.s": search_s,
        "search.us_per_root": search_s / roots * 1e6 if roots else 0.0,
        "search.settled": settled,
        "search.pruned": cnt.get("search.pruned", 0),
        "search.labels": cnt.get("search.labels", 0),
        "search.heap_pops": cnt.get("search.heap_pops", 0),
        "search.scan_entries": cnt.get("search.scan_entries", 0),
        "search.prune_frac": cnt.get("search.pruned", 0) / settled if settled else 0.0,
        "search.labels_per_settled": (
            cnt.get("search.labels", 0) / settled if settled else 0.0
        ),
        "search.scan_s_est": cnt.get("search.scan_entries", 0) * cal["scan_s"],
        "search.heap_s_est": (
            cnt.get("search.heap_pops", 0) + cnt.get("search.heap_pushes", 0)
        ) * cal["heap_op_s"],
        "commit.s": sec.get("commit", 0.0),
        "finalize.s": sec.get("finalize", 0.0),
        "index.label_entries": t["entries"],
        "index.avg_label_size": t["avg_label_size"],
        "procs.export_s": sec.get("export", 0.0),
        "procs.spawn_s": sec.get("spawn", 0.0),
        "procs.wait_s": sec.get("wait", 0.0),
        "procs.recv_s": sec.get("recv", 0.0),
        "procs.send_s": sec.get("send", 0.0),
        "procs.join_s": sec.get("join", 0.0),
        "procs.store_commit_s": sec.get("store_commit", 0.0),
        "procs.log_append_s": sec.get("log_append", 0.0),
        "telemetry.s": sec.get("telemetry", 0.0),
        "procs.dispatch_s": sec.get("dispatch", 0.0),
        "procs.loop_s": sec.get("parent_loop", 0.0),
        "procs.messages": messages,
        "procs.roots_per_msg": roots / messages if messages else 0.0,
        "worker.search_s": wsec.get("search", 0.0),
        "worker.sync_s": wsec.get("sync", 0.0),
        "worker.sync_entries": wcnt.get("sync.entries", 0),
        "worker.idle_s": worker_idle,
        "worker.busy_frac": (
            worker_busy / (worker_busy + worker_idle) if in_procs else 0.0
        ),
        "layers.residual_frac": residual_frac(t["wall_s"], t["totals"]),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
