"""One index build in a fresh process, as ``parapll index`` runs it.

Run: ``python -m ledger.child_build --graph G.npz --truth T.npz
--backend serial|procs [--procs P] [--trace-dir DIR]``.

Protocol on stdout, one JSON object per line: ``{"ready": true}`` once
the imports are done and the graph is loaded (set-up ends there; the
build starts at once), ``{"built": true}`` after the build, and the
result.  After ``built`` the child waits for a line on stdin before
checking the index against Dijkstra, so the parent can read the build's
peak RSS first; after the result it waits for stdin to close.

The result holds this process's CPU seconds up to ``ready``
(``setup_cpu_s``), the build's wall and CPU seconds, and its start and
end as ``time.monotonic()`` stamps, which the parent matches against
the host's speed (:mod:`ledger.reference`).  A procs build's CPU seconds
leave out its workers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _calibrate() -> dict:
    """Per-operation costs on this machine, for the model estimates
    ``search.scan_s_est`` and ``search.heap_s_est``: seconds per label
    entry scanned by ``query_via_tmp``, and per ``heapq`` push or pop."""
    import heapq
    import random

    from repro.core.query import query_via_tmp

    rng = random.Random(0)
    n, size, reps = 4096, 64, 2000
    tmp = [float("inf")] * n
    for h in rng.sample(range(n), size):
        tmp[h] = rng.random()
    hubs = rng.sample(range(n), size)
    dists = [rng.random() for _ in hubs]
    t0 = time.perf_counter()
    for _ in range(reps):
        query_via_tmp(tmp, hubs, dists)
    scan = (time.perf_counter() - t0) / (reps * size)
    keys = [(rng.random(), i) for i in range(100_000)]
    heap = keys[:128]
    heapq.heapify(heap)
    t0 = time.perf_counter()
    for item in keys:
        heapq.heappush(heap, item)
        heapq.heappop(heap)
    heap_op = (time.perf_counter() - t0) / (2 * len(keys))
    return {"scan_s": scan, "heap_op_s": heap_op}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--graph", required=True)
    ap.add_argument("--truth", required=True)
    ap.add_argument("--backend", choices=("serial", "procs"), required=True)
    ap.add_argument("--procs", type=int, default=2)
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args()

    clock = None
    if args.trace_dir:
        from ledger.trace import LayerClock, install_build

        clock = LayerClock()
        install_build(clock, args.trace_dir)
    import numpy as np

    import repro.io.npz as npz
    from repro.core.index import PLLIndex

    t_wall = time.perf_counter()
    graph = npz.load_graph_npz(args.graph)
    t_loaded = time.perf_counter()
    setup_cpu_s = time.process_time()
    print(json.dumps({"ready": True}), flush=True)
    start, cpu0 = time.monotonic(), time.process_time()
    if args.backend == "procs":
        index = PLLIndex.build_parallel(
            graph, args.procs, backend="procs", policy="dynamic"
        )
    else:
        index = PLLIndex.build(graph)
    end, build_cpu_s = time.monotonic(), time.process_time() - cpu0
    build_s = end - start
    wall = (t_loaded - t_wall) + build_s
    totals = clock.totals() if clock is not None else None
    if clock is not None:
        clock.restore()
    # Hold here while the parent reads the build's peak RSS, so the check
    # below does not count towards it.
    print(json.dumps({"built": True}), flush=True)
    sys.stdin.readline()

    from ledger.inputs import count_mismatches, distances_from

    with np.load(args.truth) as data:
        sources, want = data["sources"], data["dist"]
    got = distances_from(index, sources)
    mem = index.store.memory_breakdown()
    result = {
        "setup_cpu_s": setup_cpu_s,
        "build_s": build_s,
        "build_cpu_s": build_cpu_s,
        "build_start": start,
        "build_end": end,
        "n": int(index.num_vertices),
        "entries": int(index.store.total_entries),
        "avg_label_size": float(index.avg_label_size()),
        "index_bytes": int(mem["total_bytes"]),
        "checked": int(want.size),
        "mismatches": count_mismatches(got, want),
    }
    if totals is not None:
        result.update(wall_s=wall, totals=totals, calibration=_calibrate())
    print(json.dumps(result), flush=True)
    sys.stdin.read()


if __name__ == "__main__":
    main()
