"""Run one benchmark workload, or all of them, and print its metrics.

    python3 bench/run.py --workload build_serial_plaw --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 7 --trace 1

Every metric is printed by name with its unit, then a correctness
verdict.  The last line of stdout is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"setup_s": {"value": 0.27, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Inputs live in
``<repo>/.bench_work``; ``--repo`` measures another checkout with this
copy of the benchmark.  Exit codes: 0 measured, 2 the benchmark could
not run (no program source here, or a child process failed), 3 an input
fingerprint differs from the pinned one, 4 a traced build whose layers
do not add up to its wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Any, Dict, List

from ledger import DEFAULT_REPO, BenchError, load_benchmark

EXIT_FAILED, EXIT_IDENTITY, EXIT_RESIDUAL = 2, 3, 4


class IdentityError(BenchError):
    """A generated input differs from its pinned fingerprint."""


class ResidualError(BenchError):
    """Traced layers leave too much of a build's wall time unexplained."""


def workload_names() -> List[str]:
    return [w["name"] for w in load_benchmark()["workloads"]]


def reference_s(burst, repeats: int = 25) -> float:
    """The Dijkstra reference burst's median time over *repeats* runs in this
    process: a change between the start and the end of a run flags
    host-speed drift that is not the program's doing."""
    return statistics.median(burst.run() for _ in range(repeats))


def environment() -> Dict[str, Any]:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
    }


def fingerprints(wd, spec) -> Dict[str, str]:
    """The workload's graph fingerprint and, for serve workloads, the
    default-seed request-stream fingerprint."""
    from ledger.inputs import DEFAULT_SEED, STREAMS

    _graph, info = wd.graph(spec.graph)
    out = {f"graph.{spec.graph}": info["sha256"]}
    kind = getattr(spec, "stream", None)
    if kind is not None:
        stream = STREAMS[kind](DEFAULT_SEED, info["n"])
        out[f"stream.{kind}"] = stream.fingerprint()
    return out


def check_identity(found: Dict[str, str]) -> None:
    """Fail loudly when a generator no longer makes the pinned inputs:
    a generator change must not pass for a performance change."""
    from ledger.inputs import load_pinned

    pinned = load_pinned()
    for key, value in found.items():
        if pinned.get(key) != value:
            raise IdentityError(
                f"input {key} has fingerprint {value[:16]}..., pinned "
                f"{str(pinned.get(key))[:16]}...: the input generator "
                "changed, so these runs are not comparable with earlier "
                "ones (re-pin with --pin only if that is intended)"
            )


def pin(wd) -> None:
    from ledger.inputs import FINGERPRINTS_PATH
    from ledger.workloads import WORKLOADS

    found: Dict[str, str] = {}
    for spec in WORKLOADS.values():
        found.update(fingerprints(wd, spec))
    with open(FINGERPRINTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(found.items())), fh, indent=2)
        fh.write("\n")
    print(f"pinned {len(found)} fingerprints in {FINGERPRINTS_PATH}")


def run_one(
    wd, name: str, seed: int, seconds: float, traced: bool
) -> Dict[str, Any]:
    """Measure one workload; returns the full record of the run."""
    from ledger import builds, serve
    from ledger.reference import Burst
    from ledger.workloads import WORKLOADS

    spec = WORKLOADS[name]
    found = fingerprints(wd, spec)
    if wd.scale == 1.0:
        check_identity(found)
    module = builds if isinstance(spec, builds.BuildSpec) else serve
    bench = load_benchmark()
    if traced:
        burst = Burst()
        ref_start = reference_s(burst)
        out = module.run_traced(wd, spec, seed, seconds)
        ref_end = reference_s(burst)
        if out.get("residual_ok") is False:
            raise ResidualError(
                f"traced layers leave {out['layers']['layers.residual_frac']:.1%}"
                f" of the build's wall time unexplained (limit "
                f"{builds.MAX_RESIDUAL:.0%})"
            )
        values = dict(out["layers"])
        values["env.ref_loop_s"] = (ref_start + ref_end) / 2
        values["env.ref_drift_frac"] = ref_end / ref_start - 1.0
        # A layer the workload never runs reads 0.
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        out = module.run(wd, spec, seed, seconds)
        wanted = bench["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
        if missing:
            raise BenchError(f"{name} measured no {', '.join(missing)}")
        metrics = {
            m["name"]: {"value": float(out["metrics"][m["name"]]), "unit": m["unit"]}
            for m in wanted
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
        "samples": out.get("samples", {}),
        "fingerprints": found,
        "source_sha256": wd.source_hash,
        "env": environment(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def report(record: Dict[str, Any]) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']:g}  trace {record['trace']}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for key, value in record["samples"].items():
        if not isinstance(value, list) or len(value) <= 8:
            print(f"  # {key}: {json.dumps(value)}")
    verdict = "correct" if record["correct"] else "WRONG"
    print(
        f"  {verdict}: {record['failed']} of {record['attempted']} "
        "operations failed"
    )
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repo", default=DEFAULT_REPO, help="checkout to measure")
    ap.add_argument("--record", default=None, help="also write the full record")
    ap.add_argument("--pin", action="store_true", help="re-pin fingerprints")
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.workload or args.pin):
        ap.error("--workload is required")
    try:
        from ledger.inputs import WorkDir

        wd = WorkDir(args.repo, scale=args.scale)
        if args.pin:
            pin(wd)
            return 0
        names = workload_names()
        chosen = names if args.workload == "all" else [args.workload]
        unknown = [n for n in chosen if n not in names]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}; choose from {names}")
        seconds = args.seconds or load_benchmark()["run_seconds"]
        records = []
        for name in chosen:
            record = run_one(wd, name, args.seed, seconds, bool(args.trace))
            report(record)
            records.append(record)
    except IdentityError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except ResidualError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(records[0] if len(records) == 1 else records, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
