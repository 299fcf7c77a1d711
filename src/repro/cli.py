"""The ``parapll`` command-line tool.

Subcommands::

    parapll generate --dataset Gnutella --out g.npz        # make a graph
    parapll index    --graph g.npz --out g.index.npz       # build labels
    parapll index    --graph g.npz --threads 8 --policy dynamic
    parapll query    --graph g.npz --index g.index.npz 3 42
    parapll explain  --index g.index.npz 3 42              # why that answer?
    parapll stats    --index g.index.npz                   # label stats
    parapll audit    run --index g.index.npz --out a.json  # health audit
    parapll audit    diff a.json b.json                    # compare audits
    parapll serve    --index g.index.npz --port 7777       # TCP oracle
    parapll serve    --index g.index.npz --qlog q.jsonl    # + capture
    parapll workload report --qlog q.jsonl                 # traffic shape
    parapll replay   --port 7777 --requests 5000           # SLO verdict
    parapll top      --port 7777                           # live status
    parapll dash     --demo 2                              # fleet dashboard
    parapll flightrec dump --out flight.jsonl              # post-mortem ring
    parapll obs      --graph g.npz --threads 4             # observed build
    parapll bench    --experiment table4                   # = repro.bench
    parapll perf     run --tag dev                         # fingerprint suite
    parapll perf     compare benchmarks/baseline.json BENCH_dev.json  # gate
    parapll timeline --dataset Gnutella --sim --out t.json # Perfetto trace
    parapll check    lint [PATHS...]                       # project linter
    parapll check    races --threads 4                     # race detector
    parapll check    index --index g.index.npz --graph g.npz

Graphs are accepted as ``.npz`` (our binary cache), ``.gr`` (DIMACS) or
anything else (treated as a SNAP edge list).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.index import PLLIndex
from repro.core.stats import label_size_summary
from repro.errors import ReproError
from repro.generators.paper import dataset_names, load_dataset
from repro.graph.csr import CSRGraph
from repro.io.dimacs import read_dimacs
from repro.io.edgelist import read_edgelist
from repro.io.npz import load_graph_npz, save_graph_npz
from repro.parallel.threads import build_parallel_threads

__all__ = ["main"]


def _load_graph(path: str) -> CSRGraph:
    """Load a graph by file extension (.npz / .gr / edge list)."""
    if path.endswith(".npz"):
        return load_graph_npz(path)
    if path.endswith(".gr"):
        return read_dimacs(path)
    graph, _ids = read_edgelist(path)
    return graph


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_graph_npz(graph, args.out)
    print(
        f"wrote {args.out}: {graph.name} n={graph.num_vertices} "
        f"m={graph.num_edges}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    import contextlib

    from repro.obs import buildmon as _buildmon

    graph = _load_graph(args.graph)
    monitor: Optional[_buildmon.BuildMonitor] = None
    scope = contextlib.nullcontext()
    if args.progress or args.progress_jsonl:
        sink = None
        if args.progress:
            # One top-style frame per emitted snapshot, to stderr so
            # the final summary on stdout stays script-friendly.
            sink = lambda snap: print(  # noqa: E731
                monitor.render(snap) + "\n", file=sys.stderr
            )
        monitor = _buildmon.BuildMonitor(
            total_roots=graph.num_vertices, sink=sink
        )
        scope = _buildmon.monitored(monitor)
    backend = args.backend
    if backend == "auto":
        backend = "threads" if args.threads > 1 else "serial"
    with scope:
        if backend == "procs":
            from repro.parallel.procs import build_parallel_procs

            index = build_parallel_procs(
                graph,
                max(args.threads, 1),
                policy=args.policy,
                engine=args.engine,
            )
        elif backend == "threads":
            index = build_parallel_threads(
                graph, max(args.threads, 1), policy=args.policy,
                engine=args.engine,
            )
        else:
            index = PLLIndex.build(graph, engine=args.engine)
    if monitor is not None and args.progress_jsonl:
        count = monitor.write_jsonl(args.progress_jsonl)
        print(
            f"wrote {count} build-progress events to {args.progress_jsonl}"
        )
    if args.out:
        out = args.out
    elif args.format == "dir":
        out = args.graph.rsplit(".", 1)[0] + ".index"
    else:
        out = args.graph.rsplit(".", 1)[0] + ".index.npz"
    index.save(out, format=args.format)
    stats = index.stats
    secs = f"{stats.build_seconds:.2f}s" if stats else "?"
    print(
        f"indexed {graph.name}: n={graph.num_vertices} in {secs}, "
        f"LN={index.avg_label_size():.1f}, saved to {out}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph) if args.graph else None
    index = PLLIndex.load(args.index, graph=graph, mmap=args.mmap)
    if args.pairs:
        pairs = _read_pairs(args.pairs)
        for (s, t), d in zip(pairs, index.distance_batch(pairs)):
            print(f"{s} {t} {float(d)}")
        return 0
    if args.source is None or args.target is None:
        raise ReproError("query needs SOURCE and TARGET (or --pairs FILE)")
    result = index.query(args.source, args.target)
    if result.reachable:
        via = f" via hub {result.hub}" if result.hub is not None else ""
        print(f"distance({args.source}, {args.target}) = {result.distance}{via}")
    else:
        print(f"distance({args.source}, {args.target}) = unreachable")
    return 0


def _read_pairs(path: str) -> list:
    """Parse a pairs file: one ``s t`` pair of vertex ids per line."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ReproError(
                    f"{path}:{lineno}: expected 's t', got {line!r}"
                )
            pairs.append((int(fields[0]), int(fields[1])))
    return pairs


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as _json

    graph = _load_graph(args.graph) if args.graph else None
    index = PLLIndex.load(args.index, graph=graph, mmap=args.mmap)
    explanation = index.explain(args.source, args.target)
    if args.json:
        print(_json.dumps(explanation.to_dict(), indent=2))
    else:
        print(explanation.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    import time as _time

    from repro import obs
    from repro.obs import flightrec as _flightrec
    from repro.obs import qlog as _qlog
    from repro.service.oracle import DistanceOracle
    from repro.service.server import DistanceServer

    graph = _load_graph(args.graph) if args.graph else None
    if args.index:
        index = PLLIndex.load(args.index, graph=graph, mmap=args.mmap)
    elif graph is not None:
        index = PLLIndex.build(graph)
    else:
        raise ReproError("serve needs --index and/or --graph")
    # SIGUSR1 dumps the flight recorder of a live server.
    _flightrec.install_signal_handler()
    recorder = None
    if args.qlog:
        if args.qlog_sample is not None:
            obs.configure(qlog_sample=args.qlog_sample)
        recorder = _qlog.QueryLogRecorder(sink=args.qlog)
        _qlog.install(recorder)
    # SIGTERM/SIGINT request a clean shutdown: stop accepting, flush
    # the qlog sink, and emit a final metrics/SLO snapshot instead of
    # dropping buffered records on the floor.
    stop = threading.Event()

    def _request_stop(signum: int, _frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    oracle = DistanceOracle(index)
    with DistanceServer(
        oracle,
        host=args.host,
        port=args.port,
        slow_query_seconds=args.slow_query_seconds,
        shed_burn_rate=args.shed_burn_rate,
    ) as server:
        print(
            f"serving {index.num_vertices} vertices on "
            f"{args.host}:{server.port}",
            flush=True,
        )
        deadline = (
            _time.monotonic() + args.duration
            if args.duration is not None
            else None
        )
        while not stop.is_set():
            if deadline is not None and _time.monotonic() >= deadline:
                break
            stop.wait(0.2)
        _print_final_snapshot(server, oracle)
    if recorder is not None:
        _qlog.uninstall()
        recorder.close()
        print(
            f"qlog: {recorder.sampled} sampled records captured to "
            f"{args.qlog}"
        )
    return 0


def _print_final_snapshot(server, oracle) -> None:
    """The shutdown summary of ``parapll serve``."""
    stats = oracle.stats
    status = server.slo_tracker.status()
    print(
        f"served {stats.queries} point queries "
        f"({stats.cache_hits} cache hits, "
        f"{stats.batch_queries} batches), "
        f"{server.shed_count} requests shed"
    )
    windows = status["windowed_latency_quantiles"]
    for window in sorted(windows):
        q = windows[window]
        print(
            f"  window {window}: "
            + " ".join(
                f"{name}={q[name] * 1e3:.3f}ms" for name in sorted(q)
            )
        )
    for target in status["targets"]:
        state = "BREACH" if target["breached"] else "ok"
        print(
            f"  slo {target['name']}: burn_rate={target['burn_rate']:.2f} "
            f"budget_remaining={target['budget_remaining']:.1%} [{state}]"
        )


def _cmd_workload_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import qlog as _qlog
    from repro.obs import workload as _workload

    records = _qlog.read_qlog(args.qlog)
    try:
        report = _workload.characterize(
            records,
            top=args.top,
            cache_sizes=(
                [int(x) for x in args.cache_sizes.split(",")]
                if args.cache_sizes
                else None
            ),
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote workload report to {args.out}")
    if args.json:
        print(_json.dumps(report, indent=2))
    else:
        print(_workload.render_workload(report))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import qlog as _qlog
    from repro.service import replay as _replay

    config = _replay.ReplayConfig(
        mode=args.mode,
        source=args.source,
        requests=args.requests,
        clients=args.clients,
        rate=args.rate,
        seed=args.seed,
        zipf_alpha=args.zipf_alpha,
    )
    qlog_records = _qlog.read_qlog(args.qlog) if args.qlog else None
    if args.port is not None:
        report = _replay.run_replay(
            config,
            host=args.host,
            port=args.port,
            qlog_records=qlog_records,
        )
    else:
        from repro.service.oracle import DistanceOracle

        graph = _load_graph(args.graph) if args.graph else None
        if args.index:
            index = PLLIndex.load(args.index, graph=graph, mmap=args.mmap)
        elif graph is not None:
            index = PLLIndex.build(graph)
        else:
            raise ReproError(
                "replay needs a target: --port for a live server, or "
                "--index/--graph for an in-process oracle"
            )
        oracle = DistanceOracle(index, cache_size=args.cache_size)
        report = _replay.run_replay(
            config, oracle=oracle, qlog_records=qlog_records
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote replay report to {args.out}")
    if args.json:
        print(_json.dumps(report, indent=2))
    else:
        print(_replay.render_replay(report))
    if args.fail_on_breach and not report["verdict"]["pass"]:
        return 1
    return 0


def _cmd_flightrec_dump(args: argparse.Namespace) -> int:
    from repro.obs import flightrec as _flightrec

    if args.port is not None:
        from repro.service.server import DistanceClient

        with DistanceClient(args.host, args.port) as client:
            doc = client.debug(last=args.last)
        count = _flightrec.dump_events(
            doc["flightrec"], args.out, reason="remote-debug"
        )
        print(f"dumped {count} remote flight-recorder events to {args.out}")
        return 0
    if args.graph:
        # Run an instrumented build so the ring has something to show —
        # monitored, so the dump carries build_progress snapshots too.
        from repro.obs import buildmon as _buildmon

        graph = _load_graph(args.graph)
        monitor = _buildmon.BuildMonitor(total_roots=graph.num_vertices)
        with _buildmon.monitored(monitor):
            build_parallel_threads(graph, args.threads, policy=args.policy)
    count = _flightrec.get_recorder().dump(args.out, reason="manual")
    print(f"dumped {count} flight-recorder events to {args.out}")
    return 0


def _render_status(status: dict) -> str:
    """One refresh frame of ``parapll top``."""
    idx = status.get("index", {})
    lines = [
        "parapll top",
        "===========",
        f"uptime     {status.get('uptime_seconds', 0.0):10.1f} s",
        f"index      {idx.get('vertices', '?')} vertices, "
        f"{idx.get('entries', '?')} label entries "
        f"(LN {idx.get('avg_label_size', 0.0):.1f})",
        f"in-flight  {status.get('in_flight', '?')}"
        f"    queries {status.get('queries', '?')}"
        f"    slow {status.get('slow_requests', '?')}"
        f"    malformed {status.get('malformed_lines', '?')}",
    ]
    quantiles = status.get("latency_quantiles") or {}
    if quantiles:
        lines.append("latency    op              p50         p95         p99")
        for op in sorted(quantiles):
            q = quantiles[op]
            lines.append(
                f"           {op:<12}"
                + "".join(
                    f"{q.get(p, 0.0) * 1000.0:9.3f}ms"
                    for p in ("p50", "p95", "p99")
                )
            )
    tail = status.get("flightrec") or []
    if tail:
        lines.append("flight recorder (newest last):")
        for event in tail:
            lines.append(
                f"  #{event.get('seq', '?'):<6} {event.get('kind', '?'):<16} "
                f"{event.get('attrs', {})}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service.server import DistanceClient

    shown = 0
    with DistanceClient(args.host, args.port) as client:
        while True:
            status = client.status()
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(_render_status(status), flush=True)
            shown += 1
            if args.iterations is not None and shown >= args.iterations:
                break
            _time.sleep(args.interval)
    return 0


def _dash_demo_child(
    host: str, port: int, rank: int, dataset: str, scale: float, seed: int
) -> None:
    """One fleet-demo worker: a relayed, monitored threaded build."""
    from repro import obs
    from repro.obs import buildmon as _buildmon
    from repro.obs.relay import RelayClient

    obs.configure(tracing=True)
    graph = load_dataset(dataset, scale=scale, seed=seed + rank)
    client = RelayClient(host, port, rank=rank, flush_interval=0.1)
    try:
        monitor = _buildmon.BuildMonitor(
            total_roots=graph.num_vertices, interval_seconds=0.1
        )
        with _buildmon.monitored(monitor):
            build_parallel_threads(graph, 2, policy="dynamic")
    finally:
        client.close()


def _cmd_dash(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.relay import Collector, render_fleet

    # A private registry: the dash shows the *fleet's* merged metrics,
    # not whatever this process recorded on its own.
    collector = Collector(
        args.host, args.port, registry=MetricsRegistry()
    ).start()
    print(
        f"telemetry collector listening on "
        f"{collector.host}:{collector.port}",
        flush=True,
    )
    procs = []
    if args.demo:
        import multiprocessing as _mp

        for rank in range(args.demo):
            proc = _mp.Process(
                target=_dash_demo_child,
                args=(
                    collector.host,
                    collector.port,
                    rank,
                    args.dataset,
                    args.scale,
                    args.seed,
                ),
            )
            proc.start()
            procs.append(proc)
    iterations = 1 if args.once else args.iterations
    shown = 0
    try:
        while True:
            if not (args.no_clear or args.once):
                print("\x1b[2J\x1b[H", end="")
            print(render_fleet(collector), flush=True)
            shown += 1
            if iterations is not None and shown >= iterations:
                break
            if procs and not any(p.is_alive() for p in procs):
                # The demo fleet finished: show the final state and stop.
                _time.sleep(args.interval)
                print(render_fleet(collector), flush=True)
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        for proc in procs:
            proc.join(timeout=60.0)
        if args.trace_out:
            count = collector.write_chrome_trace(args.trace_out)
            print(
                f"wrote {count} stitched fleet trace events to "
                f"{args.trace_out}"
            )
        collector.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    index = PLLIndex.load(args.index, mmap=args.mmap)
    sizes = index.store.label_sizes()
    summary = label_size_summary(sizes)
    print(f"vertices:      {index.num_vertices}")
    print(f"total entries: {index.store.total_entries}")
    for key, value in summary.items():
        print(f"label size {key}: {value:.1f}")
    return 0


def _audit_from_path(
    path: str,
    graph: Optional[CSRGraph] = None,
    mmap: bool = False,
    check_dominated: bool = True,
) -> dict:
    """An audit report for *path*: a saved report (.json) or an index.

    A JSON file carrying the ``parapll-audit/1`` schema is loaded and
    validated; anything else is treated as a saved index, which is
    loaded and audited on the spot.
    """
    from repro.obs import audit as _audit

    if path.endswith(".json"):
        return _audit.load_report(path)
    index = PLLIndex.load(path, graph=graph, mmap=mmap)
    return _audit.audit_index(
        index, check_dominated=check_dominated, source=path
    )


def _cmd_audit_run(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import audit as _audit

    graph = _load_graph(args.graph) if args.graph else None
    if args.index:
        index = PLLIndex.load(args.index, graph=graph, mmap=args.mmap)
        source = args.index
    elif graph is not None:
        if args.threads > 1:
            index = build_parallel_threads(
                graph, args.threads, policy=args.policy
            )
        else:
            index = PLLIndex.build(graph)
        source = args.graph
    else:
        raise ReproError("audit run needs --index and/or --graph")
    report = _audit.audit_index(
        index, check_dominated=not args.no_dominated, source=source
    )
    _audit.validate_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote audit report to {args.out}")
    if args.json:
        print(_json.dumps(report, indent=2))
    else:
        print(_audit.render_report(report))
    dominated = report["dominated"]
    if args.fail_on_dominated and dominated["checked"] and dominated["count"]:
        return 1
    return 0


def _cmd_audit_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import audit as _audit

    graph = _load_graph(args.graph) if args.graph else None
    report_a = _audit_from_path(args.a, graph=graph, mmap=args.mmap)
    report_b = _audit_from_path(args.b, graph=graph, mmap=args.mmap)
    diff = _audit.diff_reports(report_a, report_b)
    if args.json:
        print(_json.dumps(diff, indent=2))
    else:
        print(_audit.render_diff(diff))
    return 1 if (args.fail_on_regression and diff["regressions"]) else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Build with full observability on, then report and export."""
    from repro import obs
    from repro.core.stats import label_cdf, roots_to_reach
    from repro.obs import buildmon as _buildmon
    from repro.obs import flightrec as _flightrec

    if args.graph:
        graph = _load_graph(args.graph)
    else:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)

    obs.reset()
    tracing = args.trace or args.jsonl is not None
    previous = obs.current_config()
    if tracing:
        _flightrec.reserve_for_build(graph.num_vertices)
    obs.configure(metrics=True, tracing=tracing)
    monitor = _buildmon.BuildMonitor(total_roots=graph.num_vertices)
    try:
        with _buildmon.monitored(monitor):
            if args.threads > 1:
                index = build_parallel_threads(
                    graph, args.threads, policy=args.policy,
                    engine=args.engine,
                )
            else:
                index = PLLIndex.build(graph, engine=args.engine)
    finally:
        obs.configure(
            metrics=previous.metrics, tracing=previous.tracing
        )

    print(
        f"built {graph.name}: n={graph.num_vertices} "
        f"m={graph.num_edges} LN={index.avg_label_size():.1f}"
    )
    # The Figure-6 skew, measured from the monitor's commit-order
    # per-root stats (works for threaded builds too).
    cdf = label_cdf(monitor.per_root)
    if len(cdf):
        print(
            f"labels: {monitor.labels_total} entries; 90% from the "
            f"first {roots_to_reach(cdf, 0.9)} of {monitor.roots_done} "
            "roots"
        )
    print()
    print(obs.render_summary())
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(obs.prometheus_text())
        print(f"wrote Prometheus exposition to {args.prom}")
    if args.jsonl:
        count = obs.get_recorder().dump(args.jsonl, reason="obs")
        print(f"wrote {count} flight events to {args.jsonl}")
    return 0


DEFAULT_BASELINE = "benchmarks/baseline.json"


def _cmd_perf_run(args: argparse.Namespace) -> int:
    from repro.obs.perf import render_bench, run_suite, write_bench

    doc = run_suite(
        repeats=args.repeats,
        scale=args.scale,
        seed=args.seed,
        dataset=args.dataset,
        tag=args.tag,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    out = args.out or f"BENCH_{args.tag}.json"
    write_bench(doc, out)
    print(render_bench(doc))
    print(f"wrote {out}")
    return 0


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    from repro.obs.perf import read_bench
    from repro.obs.regression import compare

    report = compare(read_bench(args.baseline), read_bench(args.current))
    print(report.render(verbose=args.verbose))
    return report.exit_code


def _cmd_perf_update_baseline(args: argparse.Namespace) -> int:
    import os

    from repro.obs.perf import run_suite, write_bench

    doc = run_suite(
        repeats=args.repeats,
        scale=args.scale,
        seed=args.seed,
        dataset=args.dataset,
        tag="baseline",
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    parent = os.path.dirname(args.baseline)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_bench(doc, args.baseline)
    print(f"wrote new baseline to {args.baseline}")
    return 0


def _cmd_perf_report(args: argparse.Namespace) -> int:
    from repro.obs.perf import read_bench, render_bench

    print(render_bench(read_bench(args.file)))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Capture (or convert) a trace; export Chrome JSON + critical path."""
    from repro import obs
    from repro.obs import flightrec as _flightrec
    from repro.obs import timeline as _timeline
    from repro.obs.metrics import ObsError

    if args.from_jsonl:
        header, events = _flightrec.read_dump(
            args.from_jsonl, _flightrec.FLIGHTREC_SCHEMA
        )
        if header is None:
            raise ObsError(
                f"{args.from_jsonl}: no {_flightrec.FLIGHTREC_SCHEMA} "
                "header (write one with parapll obs --jsonl or "
                "parapll flightrec dump)"
            )
        for n, ev in enumerate(events, 1):
            if not isinstance(ev.get("kind"), str) or not isinstance(
                ev.get("attrs"), dict
            ):
                raise ObsError(
                    f"{args.from_jsonl}: event {n} has no kind or attrs"
                )
    else:
        if args.graph:
            graph = _load_graph(args.graph)
        else:
            graph = load_dataset(
                args.dataset, scale=args.scale, seed=args.seed
            )
        obs.reset()
        previous = obs.current_config()
        _flightrec.reserve_for_build(graph.num_vertices)
        obs.configure(metrics=True, tracing=True)
        try:
            if args.sim:
                from repro.sim.executor import simulate_intra_node

                simulate_intra_node(
                    graph,
                    args.threads,
                    policy=args.policy,
                    jitter=0.15,
                    worker_jitter=0.25,
                    seed=args.seed,
                )
            elif args.threads > 1:
                build_parallel_threads(graph, args.threads, policy=args.policy)
            else:
                PLLIndex.build(graph)
        finally:
            obs.configure(
                metrics=previous.metrics, tracing=previous.tracing
            )
        events = obs.get_recorder().snapshot()

    if args.out:
        count = _timeline.write_chrome_trace(args.out, events)
        print(
            f"wrote {count} Chrome trace events to {args.out} "
            "(open in Perfetto or chrome://tracing)"
        )
    try:
        report = _timeline.analyze_critical_path(events, top_k=args.top)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_timeline.render_critical_path(report))
    return 0


def _cmd_check_lint(args: argparse.Namespace) -> int:
    import os

    from repro.check.lint import (
        all_rules,
        format_github,
        format_json,
        format_text,
        lint_paths,
        load_suppressions,
    )
    from repro.errors import CheckError

    suppressions = None
    if not args.no_suppressions and os.path.exists(args.suppressions):
        suppressions = load_suppressions(args.suppressions)
    rules = None
    if args.rules:
        wanted = {r.strip() for r in args.rules.split(",") if r.strip()}
        rules = [r for r in all_rules() if r.id in wanted]
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise CheckError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    report = lint_paths(
        args.paths,
        suppressions=suppressions,
        rules=rules,
        cache_path=args.cache,
    )
    formatter = {
        "text": format_text, "json": format_json, "github": format_github
    }[args.format]
    print(formatter(report))
    for stale in report.unused_suppressions:
        print(
            f"warning: suppression {stale.rule} for {stale.path} "
            "matched nothing (delete it?)",
            file=sys.stderr,
        )
    return report.exit_code


def _emit_check_report(args: argparse.Namespace, doc: dict) -> int:
    """Common ``parapll-check/1`` output handling (--json / --out)."""
    import json as _json

    from repro.check import report as _report

    _report.validate_report(doc)
    if getattr(args, "out", None):
        _report.write_report(doc, args.out)
    if getattr(args, "json", False):
        print(_json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(_report.render_text(doc))
    return 0 if doc["ok"] else 1


def _corpus_findings(cases: list) -> "Tuple[list, dict]":
    """(findings, stats) for a corpus run: failures become findings."""
    findings = [case.to_finding() for case in cases if not case.ok]
    stats = {
        "corpus_cases": len(cases),
        "corpus_failed": sum(1 for case in cases if not case.ok),
    }
    return findings, stats


def _cmd_check_races(args: argparse.Namespace) -> int:
    from repro.check import report as _report
    from repro.check.vectorclock import stress_threads

    if args.corpus:
        from repro.check.corpus import run_race_corpus

        cases = run_race_corpus(args.corpus)
        findings, stats = _corpus_findings(cases)
        stats["detector"] = "vc"
        return _emit_check_report(
            args, _report.make_report("races", findings, stats)
        )

    result = stress_threads(
        num_threads=args.threads,
        repeats=args.repeats,
        n=args.vertices,
        m=args.edges,
        seed=args.seed,
        cluster=args.cluster,
    )
    sanitizer = result.sanitizer
    if args.json or args.out:
        findings = [r.to_finding() for r in sanitizer.reports]
        doc = _report.make_report(
            "races", findings,
            {
                "detector": "vc",
                "builds": result.builds,
                "accesses": sanitizer.accesses_tracked,
                "threads": args.threads,
            },
        )
        return _emit_check_report(args, doc)
    print(sanitizer.render())
    print(
        f"stressed {result.builds} sanitized build(s) on "
        f"{result.vertices} vertices with {args.threads} thread(s)"
    )
    return 0 if sanitizer.ok else 1


def _cmd_check_deadlocks(args: argparse.Namespace) -> int:
    from repro.check import report as _report
    from repro.check.deadlock import LockOrderRecorder, analyze

    if args.corpus:
        from repro.check.corpus import run_deadlock_corpus

        cases = run_deadlock_corpus(args.corpus)
        findings, stats = _corpus_findings(cases)
        return _emit_check_report(
            args, _report.make_report("deadlocks", findings, stats)
        )

    recorder = LockOrderRecorder()
    stats: dict = {"paths": list(args.paths)}
    if not args.no_stress:
        from repro.check.vectorclock import (
            VectorClockSanitizer,
            stress_threads,
        )

        sanitizer = VectorClockSanitizer(lock_order=recorder)
        result = stress_threads(
            num_threads=args.threads,
            repeats=args.repeats,
            sanitizer=sanitizer,
            cluster=True,
        )
        stats["builds"] = result.builds
        stats["acquisitions"] = recorder.acquisitions
        stats["edges"] = len(recorder.edges)
    findings = analyze(args.paths, recorder)
    return _emit_check_report(
        args, _report.make_report("deadlocks", findings, stats)
    )


def _cmd_check_dataflow(args: argparse.Namespace) -> int:
    import os

    from repro.check import report as _report
    from repro.check.dataflow import analyze_paths
    from repro.check.lint import load_suppressions

    if args.corpus:
        from repro.check.corpus import run_dataflow_corpus

        cases = run_dataflow_corpus(args.corpus)
        findings, stats = _corpus_findings(cases)
        return _emit_check_report(
            args, _report.make_report("dataflow", findings, stats)
        )

    suppressions = None
    if not args.no_suppressions and os.path.exists(args.suppressions):
        suppressions = load_suppressions(args.suppressions)
    result = analyze_paths(args.paths, suppressions=suppressions)
    findings = _report.from_violations(result.violations)
    doc = _report.make_report(
        "dataflow", findings,
        {
            "files": result.files_checked,
            "functions": result.functions,
            "suppressed": len(result.suppressed),
            **{f"role_{k}": v for k, v in result.roles.items()},
        },
    )
    return _emit_check_report(args, doc)


def _cmd_check_index(args: argparse.Namespace) -> int:
    from repro.check.invariants import verify_index
    from repro.errors import CheckError

    graph = _load_graph(args.graph) if args.graph else None
    if args.index:
        index = PLLIndex.load(args.index, graph=graph)
    elif graph is not None:
        if args.threads > 1:
            index = build_parallel_threads(
                graph, args.threads, policy=args.policy
            )
        else:
            index = PLLIndex.build(graph)
    else:
        raise CheckError("check index needs --index and/or --graph")
    report = verify_index(
        index,
        graph=graph,
        samples=args.samples,
        seed=args.seed,
        strict_minimality=args.strict,
    )
    print(report.render())
    return report.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    # Reached only via "parapll bench" with no extra arguments (the
    # passthrough in main() handles the argument-forwarding case).
    from repro.bench.runner import main as bench_main

    return bench_main([])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parapll",
        description="ParaPLL: parallel shortest-path distance queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a Table-2 stand-in graph")
    g.add_argument("--dataset", required=True, choices=dataset_names())
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    i = sub.add_parser("index", help="build a PLL distance index")
    i.add_argument("--graph", required=True)
    i.add_argument("--threads", type=int, default=1)
    i.add_argument(
        "--backend",
        choices=("auto", "serial", "threads", "procs"),
        default="auto",
        help="auto = serial for --threads 1, threads otherwise; "
        "procs = worker processes over shared memory (real cores); "
        "worker count comes from --threads",
    )
    i.add_argument("--policy", choices=("static", "dynamic"), default="dynamic")
    i.add_argument(
        "--engine",
        choices=("dijkstra", "bfs"),
        default="dijkstra",
        help="dijkstra = weighted (default); bfs = unweighted hop counts",
    )
    i.add_argument("--out", default=None)
    i.add_argument(
        "--format",
        choices=("npz", "dir"),
        default="npz",
        help="npz = one compressed archive (default); dir = raw .npy "
        "bundle that query/serve can memory-map with --mmap",
    )
    i.add_argument(
        "--progress", action="store_true",
        help="render live build-progress frames to stderr",
    )
    i.add_argument(
        "--progress-jsonl", default=None, metavar="FILE",
        help="write the parapll-buildmon/1 progress events to FILE",
    )
    i.set_defaults(func=_cmd_index)

    q = sub.add_parser("query", help="query a distance from a saved index")
    q.add_argument("--index", required=True)
    q.add_argument("--graph", default=None)
    q.add_argument(
        "--pairs", default=None,
        help="file of 's t' pairs (one per line): answer all of them "
        "with the vectorised batch kernel",
    )
    q.add_argument(
        "--mmap", action="store_true",
        help="memory-map the label arrays (dir-bundle indexes only)",
    )
    q.add_argument("source", type=int, nargs="?", default=None)
    q.add_argument("target", type=int, nargs="?", default=None)
    q.set_defaults(func=_cmd_query)

    e = sub.add_parser(
        "explain",
        help="EXPLAIN one query: candidate hubs, roles, scan costs",
    )
    e.add_argument("--index", required=True)
    e.add_argument("--graph", default=None)
    e.add_argument(
        "--json", action="store_true",
        help="emit the parapll-explain/1 JSON document",
    )
    e.add_argument(
        "--mmap", action="store_true",
        help="memory-map the label arrays (dir-bundle indexes only)",
    )
    e.add_argument("source", type=int)
    e.add_argument("target", type=int)
    e.set_defaults(func=_cmd_explain)

    s = sub.add_parser("stats", help="summarise a saved index")
    s.add_argument("--index", required=True)
    s.add_argument(
        "--mmap", action="store_true",
        help="memory-map the label arrays (dir-bundle indexes only)",
    )
    s.set_defaults(func=_cmd_stats)

    a = sub.add_parser(
        "audit", help="index-health audit: run one, or diff two"
    )
    asub = a.add_subparsers(dest="audit_command", required=True)

    ar = asub.add_parser(
        "run",
        help="audit an index: label sizes, hub coverage, dominated "
        "entries, memory attribution (parapll-audit/1)",
    )
    ar.add_argument("--index", default=None, help="saved index (.npz/dir)")
    ar.add_argument(
        "--graph", default=None,
        help="graph file (index is built fresh when no --index is given)",
    )
    ar.add_argument("--threads", type=int, default=1)
    ar.add_argument(
        "--policy", choices=("static", "dynamic"), default="dynamic"
    )
    ar.add_argument(
        "--mmap", action="store_true",
        help="memory-map the label arrays (dir-bundle indexes only)",
    )
    ar.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON report to FILE",
    )
    ar.add_argument(
        "--json", action="store_true",
        help="print the JSON report instead of the text summary",
    )
    ar.add_argument(
        "--no-dominated", action="store_true",
        help="skip the dominated-entry scan (large indexes)",
    )
    ar.add_argument(
        "--fail-on-dominated", action="store_true",
        help="exit 1 when any dominated entry is found (serial builds "
        "are canonical and must have none)",
    )
    ar.set_defaults(func=_cmd_audit_run)

    ad = asub.add_parser(
        "diff",
        help="compare two audits; each argument is a saved report "
        "(.json) or an index to audit on the spot",
    )
    ad.add_argument("a", help="baseline: audit report .json or index")
    ad.add_argument("b", help="candidate: audit report .json or index")
    ad.add_argument(
        "--graph", default=None,
        help="graph file attached when auditing index arguments",
    )
    ad.add_argument(
        "--mmap", action="store_true",
        help="memory-map index arguments (dir bundles only)",
    )
    ad.add_argument(
        "--json", action="store_true",
        help="print the JSON diff instead of the text summary",
    )
    ad.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when the candidate regressed (label growth, new "
        "dominated entries, heavier coverage tail)",
    )
    ad.set_defaults(func=_cmd_audit_diff)

    sv = sub.add_parser(
        "serve", help="serve an index over line-JSON TCP"
    )
    sv.add_argument("--index", default=None, help="saved index (.npz)")
    sv.add_argument(
        "--mmap", action="store_true",
        help="memory-map the label arrays (dir-bundle indexes only)",
    )
    sv.add_argument(
        "--graph", default=None,
        help="graph file (index is built fresh when no --index is given)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0)
    sv.add_argument(
        "--slow-query-seconds", type=float, default=0.5,
        help="slow-query threshold; batches abort past it",
    )
    sv.add_argument(
        "--duration", type=float, default=None,
        help="serve for N seconds then exit (default: forever)",
    )
    sv.add_argument(
        "--qlog", default=None, metavar="FILE",
        help="capture sampled query-log records to FILE (JSONL sink, "
        "flushed on shutdown)",
    )
    sv.add_argument(
        "--qlog-sample", type=float, default=None, metavar="FRACTION",
        help="fraction of queries to capture (default: the obs-config "
        "knob, 1.0)",
    )
    sv.add_argument(
        "--shed-burn-rate", type=float, default=None, metavar="RATE",
        help="fast-fail point/batch requests while any SLO target's "
        "burn rate exceeds RATE (default: shedding off)",
    )
    sv.set_defaults(func=_cmd_serve)

    w = sub.add_parser(
        "workload",
        help="characterize captured traffic: skew, hot sets, cache curve",
    )
    wsub = w.add_subparsers(dest="workload_command", required=True)
    wr = wsub.add_parser(
        "report",
        help="analyze a parapll-qlog/1 capture (Zipf fit, hot "
        "vertices/pairs, LRU hit-rate curve)",
    )
    wr.add_argument(
        "--qlog", required=True, metavar="FILE",
        help="qlog capture: a raw --qlog sink (a parapll-qlog/1 header "
        "line first is accepted)",
    )
    wr.add_argument(
        "--top", type=int, default=10, help="hot-table depth"
    )
    wr.add_argument(
        "--cache-sizes", default=None, metavar="N,N,...",
        help="comma-separated LRU sizes to sweep",
    )
    wr.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the parapll-workload/1 JSON report to FILE",
    )
    wr.add_argument(
        "--json", action="store_true",
        help="print the JSON report instead of the text summary",
    )
    wr.set_defaults(func=_cmd_workload_report)

    rp = sub.add_parser(
        "replay",
        help="deterministic traffic replay with an SLO verdict",
    )
    rp.add_argument(
        "--host", default="127.0.0.1", help="live-server address"
    )
    rp.add_argument(
        "--port", type=int, default=None,
        help="replay against a live server (otherwise an in-process "
        "oracle from --index/--graph)",
    )
    rp.add_argument("--index", default=None, help="saved index (.npz/dir)")
    rp.add_argument(
        "--graph", default=None,
        help="graph file (index is built fresh when no --index is given)",
    )
    rp.add_argument(
        "--mmap", action="store_true",
        help="memory-map the label arrays (dir-bundle indexes only)",
    )
    rp.add_argument(
        "--cache-size", type=int, default=4096,
        help="in-process oracle LRU size",
    )
    rp.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed = N workers back-to-back; open = Poisson arrivals",
    )
    rp.add_argument(
        "--source", choices=("zipf", "uniform", "qlog"), default="zipf",
        help="traffic shape (qlog replays a capture via --qlog)",
    )
    rp.add_argument(
        "--qlog", default=None, metavar="FILE",
        help="capture to replay when --source qlog",
    )
    rp.add_argument("--requests", type=int, default=1000)
    rp.add_argument("--clients", type=int, default=4)
    rp.add_argument(
        "--rate", type=float, default=1000.0,
        help="open-loop target arrival rate, requests/second",
    )
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--zipf-alpha", type=float, default=1.1)
    rp.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the parapll-replay/1 JSON report to FILE",
    )
    rp.add_argument(
        "--json", action="store_true",
        help="print the JSON report instead of the text summary",
    )
    rp.add_argument(
        "--fail-on-breach", action="store_true",
        help="exit 1 when any SLO target breached during the replay",
    )
    rp.set_defaults(func=_cmd_replay)

    tp = sub.add_parser(
        "top", help="poll a live server's status op and render it"
    )
    tp.add_argument("--host", default="127.0.0.1")
    tp.add_argument("--port", type=int, required=True)
    tp.add_argument("--interval", type=float, default=1.0)
    tp.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N refreshes (default: run until interrupted)",
    )
    tp.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the terminal",
    )
    tp.set_defaults(func=_cmd_top)

    dsh = sub.add_parser(
        "dash",
        help="live fleet dashboard: merge relayed telemetry from worker "
        "processes (see repro.obs.relay)",
    )
    dsh.add_argument("--host", default="127.0.0.1")
    dsh.add_argument(
        "--port", type=int, default=0,
        help="collector listen port (0 = ephemeral, printed at start)",
    )
    dsh.add_argument("--interval", type=float, default=1.0)
    dsh.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N refreshes (default: run until interrupted "
        "or, with --demo, until the demo fleet finishes)",
    )
    dsh.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (works without a TTY)",
    )
    dsh.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the terminal",
    )
    dsh.add_argument(
        "--demo", type=int, default=0, metavar="N",
        help="fork N demo build workers that relay into this dash",
    )
    dsh.add_argument(
        "--dataset", choices=dataset_names(), default="Gnutella",
        help="demo workers' stand-in dataset",
    )
    dsh.add_argument("--scale", type=float, default=0.05)
    dsh.add_argument("--seed", type=int, default=42)
    dsh.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the stitched fleet Chrome trace to FILE on exit",
    )
    dsh.set_defaults(func=_cmd_dash)

    fr = sub.add_parser(
        "flightrec", help="flight recorder: dump the last-N event ring"
    )
    frsub = fr.add_subparsers(dest="flightrec_command", required=True)
    frd = frsub.add_parser(
        "dump",
        help="dump the ring to JSONL (local, post-build, or from a "
        "live server's debug op)",
    )
    frd.add_argument("--out", default="flightrec.jsonl", metavar="FILE")
    frd.add_argument(
        "--graph", default=None,
        help="run a threaded build first so the ring has events",
    )
    frd.add_argument("--threads", type=int, default=4)
    frd.add_argument(
        "--policy", choices=("static", "dynamic"), default="dynamic"
    )
    frd.add_argument("--host", default="127.0.0.1")
    frd.add_argument(
        "--port", type=int, default=None,
        help="fetch the ring from a live server instead of this process",
    )
    frd.add_argument(
        "--last", type=int, default=None,
        help="only the newest N events (remote fetch)",
    )
    frd.set_defaults(func=_cmd_flightrec_dump)

    o = sub.add_parser(
        "obs",
        help="build with observability on; report and export metrics",
    )
    src = o.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="graph file (.npz / .gr / edge list)")
    src.add_argument(
        "--dataset", choices=dataset_names(), help="generate a stand-in"
    )
    o.add_argument("--scale", type=float, default=1.0)
    o.add_argument("--seed", type=int, default=42)
    o.add_argument("--threads", type=int, default=1)
    o.add_argument("--policy", choices=("static", "dynamic"), default="dynamic")
    o.add_argument(
        "--engine", choices=("dijkstra", "bfs"), default="dijkstra"
    )
    o.add_argument(
        "--trace",
        action="store_true",
        help="enable span tracing during the build",
    )
    o.add_argument(
        "--prom",
        default=None,
        metavar="FILE",
        help="write Prometheus text exposition to FILE",
    )
    o.add_argument(
        "--jsonl",
        default=None,
        metavar="FILE",
        help="dump the flight recorder's events, spans included, to FILE "
        "as parapll-flightrec/1 JSONL (implies --trace)",
    )
    o.set_defaults(func=_cmd_obs)

    b = sub.add_parser(
        "bench",
        help="regenerate paper tables/figures",
        add_help=False,
    )
    b.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "perf",
        help="fingerprint suite: record and gate counters, simulated "
        "seconds and hook budgets (wall time lives in bench/)",
    )
    psub = p.add_subparsers(dest="perf_command", required=True)

    def _suite_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--repeats", type=int, default=3)
        sp.add_argument("--scale", type=float, default=1.0)
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--dataset", choices=dataset_names(), default="Gnutella")

    pr = psub.add_parser("run", help="run the suite, write BENCH_<tag>.json")
    _suite_args(pr)
    pr.add_argument("--tag", default="dev", help="label for the BENCH file")
    pr.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default BENCH_<tag>.json)",
    )
    pr.set_defaults(func=_cmd_perf_run)

    pc = psub.add_parser(
        "compare",
        help="gate a BENCH file against a baseline: any metric outside "
        "its tolerance, in either direction, fails",
    )
    pc.add_argument("baseline", help="baseline BENCH file")
    pc.add_argument("current", help="current BENCH file")
    pc.add_argument("-v", "--verbose", action="store_true")
    pc.set_defaults(func=_cmd_perf_compare)

    pu = psub.add_parser(
        "update-baseline", help="re-run the suite and overwrite the baseline"
    )
    _suite_args(pu)
    pu.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline path (default {DEFAULT_BASELINE})",
    )
    pu.set_defaults(func=_cmd_perf_update_baseline)

    pp = psub.add_parser("report", help="render a BENCH file")
    pp.add_argument("file")
    pp.set_defaults(func=_cmd_perf_report)

    t = sub.add_parser(
        "timeline",
        help="trace a build into Chrome trace JSON + critical path",
    )
    tsrc = t.add_mutually_exclusive_group(required=True)
    tsrc.add_argument("--graph", help="graph file (.npz / .gr / edge list)")
    tsrc.add_argument(
        "--dataset", choices=dataset_names(), help="generate a stand-in"
    )
    tsrc.add_argument(
        "--from-jsonl", metavar="FILE",
        help="convert a parapll-flightrec/1 dump (parapll obs --jsonl, "
        "a failure auto-dump) instead of building",
    )
    t.add_argument("--scale", type=float, default=1.0)
    t.add_argument("--seed", type=int, default=42)
    t.add_argument("--threads", type=int, default=4)
    t.add_argument("--policy", choices=("static", "dynamic"), default="dynamic")
    t.add_argument(
        "--sim", action="store_true",
        help="trace the deterministic simulator instead of real threads",
    )
    t.add_argument(
        "--out", default=None, metavar="FILE",
        help="write Chrome trace JSON to FILE",
    )
    t.add_argument(
        "--top", type=int, default=5, help="slowest tasks to list"
    )
    t.set_defaults(func=_cmd_timeline)

    c = sub.add_parser(
        "check",
        help="correctness tooling: lint / races / deadlocks / dataflow / index",
    )
    csub = c.add_subparsers(dest="check_command", required=True)

    cl = csub.add_parser(
        "lint", help="run the project lint rules (PC001..PC005)"
    )
    cl.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    cl.add_argument(
        "--format", choices=("text", "json", "github"), default="text"
    )
    cl.add_argument(
        "--suppressions", default=".parapll-lint.json", metavar="FILE",
        help="checked-in accepted exceptions (ignored when absent)",
    )
    cl.add_argument(
        "--no-suppressions", action="store_true",
        help="report everything, including accepted exceptions",
    )
    cl.add_argument(
        "--cache", default=None, metavar="FILE",
        help="per-file result cache keyed on content hashes (for CI)",
    )
    cl.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    cl.set_defaults(func=_cmd_check_lint)

    cr = csub.add_parser(
        "races",
        help="stress the threaded builder under a race sanitizer",
    )
    cr.add_argument("--threads", type=int, default=4)
    cr.add_argument("--repeats", type=int, default=3)
    cr.add_argument("--vertices", type=int, default=120)
    cr.add_argument("--edges", type=int, default=400)
    cr.add_argument("--seed", type=int, default=7)
    cr.add_argument(
        "--cluster", action="store_true",
        help="also stress the simulated-cluster thread backend",
    )
    cr.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="run the seeded-defect race corpus instead of a stress run",
    )
    cr.add_argument(
        "--json", action="store_true",
        help="emit a parapll-check/1 report on stdout",
    )
    cr.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the parapll-check/1 report to FILE",
    )
    cr.set_defaults(func=_cmd_check_races)

    cd = csub.add_parser(
        "deadlocks",
        help="lock-order analysis: runtime acquisition cycles plus "
        "static nested-with inversions",
    )
    cd.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories for the static pass (default: src)",
    )
    cd.add_argument("--threads", type=int, default=4)
    cd.add_argument("--repeats", type=int, default=2)
    cd.add_argument(
        "--no-stress", action="store_true",
        help="skip the runtime stress run; static analysis only",
    )
    cd.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="run the seeded-defect deadlock corpus instead",
    )
    cd.add_argument(
        "--json", action="store_true",
        help="emit a parapll-check/1 report on stdout",
    )
    cd.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the parapll-check/1 report to FILE",
    )
    cd.set_defaults(func=_cmd_check_deadlocks)

    cf = csub.add_parser(
        "dataflow",
        help="thread-role dataflow rules PC007..PC011 over a call graph",
    )
    cf.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to analyze (default: src)",
    )
    cf.add_argument(
        "--suppressions", default=".parapll-lint.json", metavar="FILE",
        help="checked-in accepted exceptions (ignored when absent)",
    )
    cf.add_argument(
        "--no-suppressions", action="store_true",
        help="report everything, including accepted exceptions",
    )
    cf.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="run the seeded-defect dataflow corpus instead",
    )
    cf.add_argument(
        "--json", action="store_true",
        help="emit a parapll-check/1 report on stdout",
    )
    cf.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the parapll-check/1 report to FILE",
    )
    cf.set_defaults(func=_cmd_check_dataflow)

    ci = csub.add_parser(
        "index", help="verify the label invariants of a built index"
    )
    ci.add_argument("--index", default=None, help="saved index (.npz)")
    ci.add_argument(
        "--graph", default=None,
        help="graph file; enables the sampled Dijkstra exactness check "
        "(builds the index fresh when no --index is given)",
    )
    ci.add_argument("--threads", type=int, default=1)
    ci.add_argument(
        "--policy", choices=("static", "dynamic"), default="dynamic"
    )
    ci.add_argument("--samples", type=int, default=64)
    ci.add_argument("--seed", type=int, default=0)
    ci.add_argument(
        "--strict", action="store_true",
        help="fail on redundant (dominated) labels — serial builds only",
    )
    ci.set_defaults(func=_cmd_check_index)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    import sys as _sys

    argv = list(_sys.argv[1:]) if argv is None else list(argv)
    # "bench" forwards everything after it to the bench runner's own
    # parser (argparse subparsers cannot pass through unknown options).
    if argv and argv[0] == "bench":
        from repro.bench.runner import main as bench_main

        return bench_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
