"""Fleet observability: two worker processes, one merged dashboard.

ParaPLL's deployment story is ranks × threads — separate *processes*
whose metrics, traces and progress reports all live in module-level
state that goes dark across the fork boundary.  This example runs the
full telemetry plane end to end, in one script:

* a parent-side :class:`~repro.obs.relay.Collector` listening on an
  ephemeral loopback port, merging into a private registry;
* two forked worker processes, each running a monitored threaded build
  with a :class:`~repro.obs.relay.RelayClient` shipping
  ``parapll-telemetry/3`` frames (metric deltas, and the
  flight-recorder events, spans and ``build_progress`` snapshots
  included) back to the parent;
* the merged result: fleet-wide counters (sums are exact), one
  stitched Chrome trace with every span attributed by pid/rank, and
  the ``parapll dash`` text frame.

Run it, then open ``fleet.trace.json`` in Perfetto to see both
workers' build lanes on one timeline.  For the live version of the
same view, run ``parapll dash --demo 2``.
"""

from repro import obs
from repro.generators.paper import load_dataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.relay import Collector, RelayClient, render_fleet


def worker(host: str, port: int, rank: int) -> None:
    """One fleet worker: a relayed, monitored threaded build."""
    from repro.obs import buildmon
    from repro.parallel.threads import build_parallel_threads

    obs.reset()
    obs.configure(tracing=True)
    graph = load_dataset("Gnutella", scale=0.3, seed=7 + rank)
    client = RelayClient(host, port, rank=rank, flush_interval=0.1)
    try:
        monitor = buildmon.BuildMonitor(
            total_roots=graph.num_vertices, interval_seconds=0.1
        )
        with buildmon.monitored(monitor):
            build_parallel_threads(graph, 2, policy="dynamic")
    finally:
        client.close()


def main() -> None:
    import multiprocessing

    # A private registry: the collector shows the *fleet's* merged
    # metrics, not whatever this parent process recorded on its own
    # (and a client in the same process must never diff the registry
    # the collector merges into — that would re-ship merged increments
    # forever).
    with Collector(registry=MetricsRegistry()) as collector:
        print(f"collector listening on {collector.host}:{collector.port}\n")
        children = [
            multiprocessing.Process(
                target=worker, args=(collector.host, collector.port, rank)
            )
            for rank in range(2)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120.0)

        # Let the collector drain the final at-exit flushes.
        import time

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            stats = collector.stats()
            if stats["sources"] and not any(
                s["connected"] for s in stats["sources"].values()
            ):
                break
            time.sleep(0.05)

        print(render_fleet(collector))

        # Counters merged by summing: the fleet-wide root total is the
        # exact sum of what each worker committed.
        stats = collector.stats()
        for metric in collector.registry.snapshot():
            if metric["name"] == "parapll_build_roots_total":
                total = sum(s["value"] for s in metric["series"])
                print(f"\nfleet-wide roots indexed: {total:.0f}")
        print(
            f"frames {stats['frames']}, dropped {stats['dropped']}, "
            f"malformed {stats['malformed']}, "
            f"merge errors {stats['merge_errors']}"
        )

        # Every span and event from both workers, pid/rank-attributed,
        # in one Chrome trace.
        count = collector.write_chrome_trace("fleet.trace.json")
        print(f"wrote {count} stitched trace events to fleet.trace.json")


if __name__ == "__main__":
    main()
