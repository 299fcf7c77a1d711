"""Sets of benchmark runs: record them, check their spread, compare two.

    python3 bench/compare.py set --out runs/base --seeds 1-10
    python3 bench/compare.py spread runs/base
    python3 bench/compare.py record runs/base --sha $(git rev-parse HEAD)
    python3 bench/compare.py pairs --parent ../parent --change . --out runs/ab
    python3 bench/compare.py compare runs/ab/parent runs/ab/change

``set`` runs every workload once per seed and keeps each run's record;
the seed loop is the outer one and each round starts with another
workload, so no workload always runs first.  ``spread`` prints, per
workload and end-to-end metric, the distance between the quartiles as a
share of the median, against the metric's bound.  ``record`` appends one
headline row (medians) to ``bench/history.jsonl``.  ``pairs`` runs
parent and change alternately, in the same rounds, with this copy of
the benchmark against both checkouts, and ``compare`` applies the rule
for claiming a gain: the change wins at least 9 of 10 pairs and the
medians differ by more than the parent's quartile spread.  Every other
metric is "no worse than its bound", a regression, or "unresolved" when
the parent's own spread is wider than the bound.  A workload on which
any change run failed an operation is WRONG on every metric, never a
gain.  ``compare`` refuses records whose ``nproc``, Python or numpy
versions or input fingerprints differ.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

from ledger import BENCH_DIR, DEFAULT_REPO, load_benchmark

RUN_PY = os.path.join(BENCH_DIR, "run.py")
HISTORY = os.path.join(BENCH_DIR, "history.jsonl")

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9
#: Fewest parent/change pairs a comparison accepts.
MIN_PAIRS = 10

WRONG = "WRONG"


class Refused(Exception):
    """The runs cannot be compared."""


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,9"``."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(repo: str, workload: str, seed: int, out: str) -> float:
    """One ``run.py`` invocation recording to *out*; returns its wall."""
    argv = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
            "--repo", repo, "--record", out]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=repo, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    return wall


def load_runs(directory: str) -> List[Dict[str, Any]]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        raise SystemExit(f"no run records in {directory}")
    return runs


def by_workload(runs: Sequence[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = {}
    for run in sorted(runs, key=lambda r: (r["workload"], r.get("pair", r["seed"]))):
        out.setdefault(run["workload"], []).append(run)
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values: Sequence[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


# ----------------------------------------------------------------------
def check_comparable(runs: Sequence[Dict[str, Any]]) -> None:
    """Refuse runs from different machines shapes, interpreters,
    numpy versions, or inputs."""
    for key in ("nproc", "python", "numpy"):
        seen = {str(r["env"].get(key)) for r in runs}
        if len(seen) > 1:
            raise Refused(f"runs differ in {key}: {sorted(seen)}")
    for workload, group in by_workload(runs).items():
        seen = {json.dumps(r["fingerprints"], sort_keys=True) for r in group}
        if len(seen) > 1:
            raise Refused(f"runs of {workload} differ in input fingerprints")


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """Compare paired runs of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    worse = -gain / abs(pm) if pm else 0.0
    if wins >= WIN_SHARE * len(parent) and gain > (p3 - p1):
        text = "GAIN"
    elif (p3 - p1) / abs(pm if pm else 1.0) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        text = "better in every run" if all_better else "unresolved"
    elif worse > bound:
        text = "REGRESSION"
    else:
        text = "no worse than bound"
    return {
        "parent": [p1, pm, p3],
        "change": [c1, cm, c3],
        "wins": wins,
        "pairs": len(parent),
        "worse_frac": worse,
        "verdict": text,
    }


def derived_from(workload: str, metric: str) -> str:
    """The metric *metric* is a fixed function of on *workload*, or ''.
    On builds ``throughput`` is the vertex count over the build time that
    ``p50_ms`` reports, so it gets no verdict of its own: a build-time
    change would otherwise count twice."""
    if workload.startswith("build_") and metric == "throughput":
        return "p50_ms"
    return ""


def wrong_runs(runs: Sequence[Dict[str, Any]]) -> int:
    """Runs that failed an operation: a wrong answer, an error, no answer."""
    return sum(1 for r in runs if r["failed"] > 0 or not r["correct"])


def compare(parent_runs: List[Dict[str, Any]], change_runs: List[Dict[str, Any]]):
    """Per workload, per end-to-end metric verdicts.  A gain does not
    count when the change gets answers wrong, so a workload with any
    failing change run is WRONG on every metric."""
    check_comparable(list(parent_runs) + list(change_runs))
    metrics = load_benchmark()["end_to_end"]
    parents, changes = by_workload(parent_runs), by_workload(change_runs)
    rows = {}
    for workload in sorted(parents):
        p, c = parents[workload], changes.get(workload, [])
        if len(p) != len(c):
            raise Refused(f"{workload}: {len(p)} parent runs, {len(c)} change runs")
        if len(p) < MIN_PAIRS:
            raise Refused(f"{workload}: {len(p)} pairs, fewer than {MIN_PAIRS}")
        wrong = wrong_runs(c)
        row = {}
        for m in metrics:
            v = verdict(
                [r["metrics"][m["name"]]["value"] for r in p],
                [r["metrics"][m["name"]]["value"] for r in c],
                m["better"],
                m["bound"],
            )
            source = derived_from(workload, m["name"])
            if wrong:
                v["verdict"] = f"{WRONG} ({wrong} of {len(c)} change runs failed)"
            elif source:
                v["verdict"] = f"derived from {source}"
            row[m["name"]] = v
        rows[workload] = row
    return rows


# ----------------------------------------------------------------------
def workload_names() -> List[str]:
    return [w["name"] for w in load_benchmark()["workloads"]]


def round_order(names: Sequence[str], k: int) -> List[str]:
    """The workloads of round *k*, rotated so that round after round a
    different one runs first: the host's state at the start of a round
    is not tied to one workload."""
    k %= len(names)
    return list(names[k:]) + list(names[:k])


def cmd_set(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    for k, seed in enumerate(parse_seeds(args.seeds)):
        for name in round_order(workload_names(), k):
            out = os.path.join(os.path.abspath(args.out), f"{name}-s{seed}.json")
            wall = run_once(os.path.abspath(args.repo), name, seed, out)
            print(f"{name} seed {seed}: {wall:.1f}s", flush=True)
    return 0


def cmd_spread(args: argparse.Namespace) -> int:
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    worst = 0.0
    for workload, group in by_workload(load_runs(args.dir)).items():
        print(f"{workload} ({len(group)} runs)")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in group]
            share = spread_share(values)
            q1, med, q3 = quartiles(values)
            flag = "ok" if share <= m["bound"] / 3 else (
                "WIDE" if share <= m["bound"] else "TOO WIDE")
            if name != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"  {name:<14} median {med:<12.6g} quartiles "
                  f"[{q1:.6g}, {q3:.6g}]  spread {share:6.2%} of median, "
                  f"bound {m['bound']:.0%}  {flag}")
    print(f"widest spread (setup_s aside): {worst:.2f} of its bound")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    runs = load_runs(args.dir)
    check_comparable(runs)
    env = runs[0]["env"]
    sources = {r["source_sha256"] for r in runs}
    if len(sources) > 1:
        raise SystemExit(f"{args.dir} holds runs of {len(sources)} program versions")
    row = {
        "sha": args.sha,
        "source_sha256": sources.pop()[:16],
        "date": time.strftime("%Y-%m-%d"),
        "nproc": env["nproc"],
        "cpu": env["cpu"],
        "runs_per_workload": min(len(g) for g in by_workload(runs).values()),
        "medians": {
            workload: {
                name: round(statistics.median(r["metrics"][name]["value"] for r in group), 6)
                for name in group[0]["metrics"]
            }
            for workload, group in by_workload(runs).items()
        },
    }
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended {args.sha} to {HISTORY}")
    return 0


def cmd_pairs(args: argparse.Namespace) -> int:
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side in sides:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in round_order(workload_names(), i):
            for side in order:
                out = os.path.join(os.path.abspath(args.out), side, f"{name}-p{i}.json")
                run_once(sides[side], name, seed, out)
                with open(out, "r", encoding="utf-8") as fh:
                    record = json.load(fh)
                record["pair"] = i
                with open(out, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1)
            print(f"{name} pair {i} (seed {seed}) done", flush=True)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        rows = compare(load_runs(args.parent), load_runs(args.change))
    except Refused as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    regressed = False
    for workload, metrics in rows.items():
        cells = []
        for name, v in metrics.items():
            regressed |= v["verdict"] == "REGRESSION" or v["verdict"].startswith(WRONG)
            cells.append(
                f"{name}: {v['verdict']} (median {v['parent'][1]:.6g} -> "
                f"{v['change'][1]:.6g}, wins {v['wins']}/{v['pairs']})"
            )
        print(f"{workload}: " + "; ".join(cells))
    return 1 if regressed else 0


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("set", help="run every workload once per seed")
    s.add_argument("--out", required=True)
    s.add_argument("--repo", default=DEFAULT_REPO)
    s.add_argument("--seeds", default="1-10")
    s.set_defaults(func=cmd_set)
    p = sub.add_parser("spread", help="quartile spread of a set vs bounds")
    p.add_argument("dir")
    p.set_defaults(func=cmd_spread)
    r = sub.add_parser("record", help="append a set's medians to the history")
    r.add_argument("dir")
    r.add_argument("--sha", required=True)
    r.set_defaults(func=cmd_record)
    a = sub.add_parser("pairs", help="alternating parent/change runs")
    a.add_argument("--parent", required=True)
    a.add_argument("--change", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--pairs", type=int, default=10)
    a.add_argument("--first-seed", type=int, default=100)
    a.set_defaults(func=cmd_pairs)
    c = sub.add_parser("compare", help="verdicts for two sets of paired runs")
    c.add_argument("parent")
    c.add_argument("change")
    c.set_defaults(func=cmd_compare)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
