"""Workload characterization: what the traffic looks like, measured.

A query log (:mod:`repro.obs.qlog`) is a stream of per-request facts;
this module turns it into the aggregate shape a capacity plan or a
shard/replica placement policy actually consumes:

* **Skew** — a Zipf exponent fitted to the vertex and pair
  rank-frequency curves (least squares on log-log, with an R² so a
  non-power-law fit is visible as such).  Hop-doubling labeling
  (arXiv 1403.0779) motivates the scale-free model: on social-network
  shaped workloads a small set of hot vertices dominates the pairs.
* **Hot sets** — the top-N vertices and pairs by request count, i.e.
  the concrete candidates for pinning/replication.
* **Cache curve** — LRU hit rate as a function of cache size, computed
  by replaying the captured request sequence through simulated LRUs.
  This is the measured answer to "how big should the oracle cache be",
  as opposed to the single observed hit rate at whatever size was
  deployed during capture.

The report (``parapll-workload/1``) is JSON; ``parapll workload
report`` renders it for terminals.  Everything here is offline
analysis — nothing on the serve path imports this module.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "WORKLOAD_SCHEMA",
    "DEFAULT_CACHE_SIZES",
    "fit_zipf",
    "simulate_cache_curve",
    "exact_quantile",
    "characterize",
    "render_workload",
]

WORKLOAD_SCHEMA = "parapll-workload/1"

#: Cache sizes swept by the hit-rate curve (clipped to the number of
#: unique pairs in the capture — larger sizes cannot change the curve).
DEFAULT_CACHE_SIZES: Tuple[int, ...] = (16, 64, 256, 1024, 4096, 16384)


def fit_zipf(counts: Sequence[int]) -> Tuple[float, float]:
    """Fit ``frequency ∝ rank^-alpha`` to a descending count list.

    Ordinary least squares of ``log(count)`` against ``log(rank)``.

    Args:
        counts: per-item request counts, any order (sorted internally).

    Returns:
        ``(alpha, r_squared)``; ``(0.0, 0.0)`` when fewer than two
        distinct ranks exist (a constant curve has no slope).
    """
    ranked = sorted((c for c in counts if c > 0), reverse=True)
    n = len(ranked)
    if n < 2:
        return 0.0, 0.0
    xs = [math.log(rank) for rank in range(1, n + 1)]
    ys = [math.log(c) for c in ranked]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0.0:
        return 0.0, 0.0
    slope = sxy / sxx
    r2 = (sxy * sxy) / (sxx * syy) if syy > 0.0 else 1.0
    return -slope, r2


def simulate_cache_curve(
    pairs: Sequence[Tuple[int, int]],
    sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
) -> List[Tuple[int, float]]:
    """Replay *pairs* through simulated LRUs of each size.

    The simulation mirrors :class:`~repro.service.oracle.DistanceOracle`
    exactly: canonical ``(min, max)`` keys, move-to-end on hit, evict
    oldest on overflow.

    Returns:
        ``[(size, hit_rate), ...]`` ascending by size, deduplicated and
        clipped at the number of unique pairs (one extra entry at
        exactly that count shows the compulsory-miss ceiling).
    """
    keys = [(s, t) if s <= t else (t, s) for s, t in pairs]
    if not keys:
        return []
    unique = len(set(keys))
    sweep = sorted({int(z) for z in sizes if 0 < int(z) < unique} | {unique})
    out: List[Tuple[int, float]] = []
    for size in sweep:
        cache: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        hits = 0
        for key in keys:
            if key in cache:
                cache.move_to_end(key)
                hits += 1
            else:
                cache[key] = None
                if len(cache) > size:
                    cache.popitem(last=False)
        out.append((size, hits / len(keys)))
    return out


def exact_quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def characterize(
    records: Sequence[Dict[str, Any]],
    top: int = 10,
    cache_sizes: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """Build the ``parapll-workload/1`` report from qlog records.

    Args:
        records: parsed qlog records
            (:func:`repro.obs.qlog.read_qlog` output).
        top: hot-table depth.
        cache_sizes: LRU sizes to sweep (default
            :data:`DEFAULT_CACHE_SIZES`).

    Raises:
        ValueError: when *records* is empty — an empty capture has no
            shape to report.
    """
    if not records:
        raise ValueError("cannot characterize an empty query log")
    ops: Counter = Counter()
    outcomes: Counter = Counter()
    vertex_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    pairs: List[Tuple[int, int]] = []
    latencies: List[float] = []
    cache_hits = 0
    for rec in records:
        ops[rec.get("op", "?")] += 1
        outcomes[rec.get("outcome", "?")] += 1
        s, t = int(rec["s"]), int(rec["t"])
        key = (s, t) if s <= t else (t, s)
        vertex_counts[s] += 1
        if t != s:
            vertex_counts[t] += 1
        pair_counts[key] += 1
        pairs.append(key)
        latencies.append(float(rec.get("latency_us", 0.0)))
        if rec.get("cache_hit"):
            cache_hits += 1
    latencies.sort()
    vertex_alpha, vertex_r2 = fit_zipf(list(vertex_counts.values()))
    pair_alpha, pair_r2 = fit_zipf(list(pair_counts.values()))
    n = len(records)
    return {
        "schema": WORKLOAD_SCHEMA,
        "records": n,
        "ops": dict(sorted(ops.items())),
        "outcomes": dict(sorted(outcomes.items())),
        "unique_vertices": len(vertex_counts),
        "unique_pairs": len(pair_counts),
        "observed_cache_hit_rate": cache_hits / n,
        "latency_us": {
            "mean": sum(latencies) / n,
            "p50": exact_quantile(latencies, 0.50),
            "p95": exact_quantile(latencies, 0.95),
            "p99": exact_quantile(latencies, 0.99),
            "max": latencies[-1],
        },
        "zipf": {
            "vertex_alpha": vertex_alpha,
            "vertex_r2": vertex_r2,
            "pair_alpha": pair_alpha,
            "pair_r2": pair_r2,
        },
        "hot_vertices": [
            [v, c] for v, c in vertex_counts.most_common(top)
        ],
        "hot_pairs": [
            [s, t, c] for (s, t), c in pair_counts.most_common(top)
        ],
        "cache_curve": [
            [size, rate]
            for size, rate in simulate_cache_curve(
                pairs, cache_sizes or DEFAULT_CACHE_SIZES
            )
        ],
    }


def render_workload(report: Dict[str, Any]) -> str:
    """Render a workload report as terminal text."""
    lines: List[str] = []
    lat = report["latency_us"]
    zipf = report["zipf"]
    lines.append(
        f"workload: {report['records']} records, "
        f"{report['unique_pairs']} unique pairs over "
        f"{report['unique_vertices']} vertices"
    )
    lines.append(
        "  ops: "
        + ", ".join(f"{k}={v}" for k, v in report["ops"].items())
        + "   outcomes: "
        + ", ".join(f"{k}={v}" for k, v in report["outcomes"].items())
    )
    lines.append(
        f"  latency_us: p50={lat['p50']:.1f} p95={lat['p95']:.1f} "
        f"p99={lat['p99']:.1f} max={lat['max']:.1f}"
    )
    lines.append(
        f"  zipf fit: vertex alpha={zipf['vertex_alpha']:.3f} "
        f"(r2={zipf['vertex_r2']:.3f}), "
        f"pair alpha={zipf['pair_alpha']:.3f} "
        f"(r2={zipf['pair_r2']:.3f})"
    )
    lines.append(
        f"  observed cache hit rate: "
        f"{report['observed_cache_hit_rate']:.1%}"
    )
    lines.append("  hot vertices:")
    for v, c in report["hot_vertices"]:
        lines.append(f"    {v:>8d}  {c} requests")
    lines.append("  hot pairs:")
    for s, t, c in report["hot_pairs"]:
        lines.append(f"    ({s}, {t})  {c} requests")
    lines.append("  cache curve (simulated LRU):")
    for size, rate in report["cache_curve"]:
        bar = "#" * int(round(rate * 40))
        lines.append(f"    {size:>8d}  {rate:6.1%}  {bar}")
    return "\n".join(lines)
