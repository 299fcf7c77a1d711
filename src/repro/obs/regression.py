"""The regression gate: compare two BENCH documents metric by metric.

:func:`compare` walks every metric of the *baseline* document, finds its
counterpart in the *current* one, and classifies the pair using the
baseline's recorded per-metric tolerance (scaled by ``tolerance_scale``
for noisier environments).  All suite metrics are lower-is-better
(times, operation counts, bytes), so:

* ratio > 1 + tol  →  **regressed**
* ratio < 1 - tol  →  **improved**
* otherwise        →  **unchanged**

with an absolute epsilon per metric kind so microscopic wall-clock
jitter on sub-millisecond workloads never trips the gate.  A metric
present in the baseline but missing from the current run is itself a
failure (**missing** — a silently dropped measurement must not pass
CI); metrics only present in the current run are reported as **new**
and do not fail the gate.

Wall-clock (``kind == "time"``) metrics can be excluded wholesale via
``ignore_kinds`` when comparing across machines — CI compares a
fresh run against the checked-in baseline on counters and simulated
seconds only, both of which are machine-independent.  Comparing them
across documents whose ``environment.cpu_count`` differ is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.perf import ABS_EPSILON, PerfError

__all__ = [
    "MetricComparison",
    "ComparisonReport",
    "compare",
    "STATUS_ORDER",
]

#: Severity order for report rendering (worst first).
STATUS_ORDER = ("regressed", "missing", "new", "improved", "unchanged")


@dataclass
class MetricComparison:
    """One metric's verdict.

    Attributes:
        workload: workload name.
        metric: metric name.
        kind: metric kind (``time`` / ``sim`` / ``counter``).
        baseline: baseline median (``None`` for *new* metrics).
        current: current median (``None`` for *missing* metrics).
        tolerance: the relative tolerance applied.
        ratio: ``current / baseline`` where both exist and the baseline
            is nonzero.
        status: ``regressed`` / ``missing`` / ``new`` / ``improved`` /
            ``unchanged``.
    """

    workload: str
    metric: str
    kind: str
    baseline: Optional[float]
    current: Optional[float]
    tolerance: float
    ratio: Optional[float]
    status: str


@dataclass
class ComparisonReport:
    """Every metric verdict plus the gate decision."""

    comparisons: List[MetricComparison] = field(default_factory=list)
    ignored_kinds: Sequence[str] = ()

    @property
    def regressions(self) -> List[MetricComparison]:
        """Comparisons that fail the gate (regressed or missing)."""
        return [
            c for c in self.comparisons if c.status in ("regressed", "missing")
        ]

    @property
    def ok(self) -> bool:
        """True when nothing regressed and nothing went missing."""
        return not self.regressions

    @property
    def exit_code(self) -> int:
        """Process exit code for the CLI (0 pass, 1 fail)."""
        return 0 if self.ok else 1

    def counts(self) -> Dict[str, int]:
        """Verdict histogram, in :data:`STATUS_ORDER`."""
        out = {status: 0 for status in STATUS_ORDER}
        for c in self.comparisons:
            out[c.status] += 1
        return out

    def render(self, verbose: bool = False) -> str:
        """Terminal summary; regressions always listed, rest on demand."""
        counts = self.counts()
        headline = ", ".join(
            f"{n} {status}" for status, n in counts.items() if n
        ) or "nothing compared"
        lines = [f"regression gate: {headline}"]
        if self.ignored_kinds:
            lines.append(
                f"  (ignoring kinds: {', '.join(self.ignored_kinds)})"
            )
        for c in sorted(
            self.comparisons,
            key=lambda c: (STATUS_ORDER.index(c.status), c.workload, c.metric),
        ):
            if not verbose and c.status in ("unchanged",):
                continue
            if c.status == "missing":
                detail = "metric missing from current run"
            elif c.status == "new":
                detail = f"new metric, current={c.current:g}"
            else:
                ratio = f"{c.ratio:.3f}x" if c.ratio is not None else "n/a"
                detail = (
                    f"{c.baseline:g} -> {c.current:g} ({ratio}, "
                    f"tol {c.tolerance:.0%})"
                )
            lines.append(
                f"  [{c.status:<9}] {c.workload}.{c.metric} ({c.kind}): "
                f"{detail}"
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _classify(baseline: float, current: float, kind: str, tol: float):
    eps = ABS_EPSILON.get(kind, 0.0)
    ratio = current / baseline if baseline else None
    if abs(current - baseline) <= eps:
        status = "unchanged"
    elif baseline == 0:
        # Zero baseline: any growth beyond the epsilon is a regression
        # (there is no meaningful ratio to apply a tolerance to).
        status = "regressed" if current > baseline else "improved"
    elif ratio > 1.0 + tol:
        status = "regressed"
    elif ratio < 1.0 - tol:
        status = "improved"
    else:
        status = "unchanged"
    return status, ratio


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance_scale: float = 1.0,
    ignore_kinds: Iterable[str] = (),
) -> ComparisonReport:
    """Compare two BENCH documents into a :class:`ComparisonReport`.

    Args:
        baseline: the reference document (e.g. the checked-in
            ``benchmarks/baseline.json``).
        current: the freshly recorded document.
        tolerance_scale: multiplier on every per-metric tolerance
            (raise above 1.0 on noisy shared hardware).
        ignore_kinds: metric kinds to exclude entirely (pass
            ``("time",)`` when the two documents come from different
            machines).

    Raises:
        PerfError: for documents without a workloads section, a
            non-positive tolerance scale, mismatched suite configs
            (scale / seed / dataset) — counter and sim metrics are only
            comparable between runs of the identical workload — or
            ``time`` metrics compared across documents whose
            ``environment.cpu_count`` differ.
    """
    if tolerance_scale <= 0:
        raise PerfError("tolerance_scale must be positive")
    for name, doc in (("baseline", baseline), ("current", current)):
        if not isinstance(doc.get("workloads"), dict):
            raise PerfError(f"{name} document has no workloads section")
    base_cfg = baseline.get("config", {})
    cur_cfg = current.get("config", {})
    for key in ("scale", "seed", "dataset"):
        if key in base_cfg and key in cur_cfg and base_cfg[key] != cur_cfg[key]:
            raise PerfError(
                f"config mismatch: baseline {key}={base_cfg[key]!r} vs "
                f"current {key}={cur_cfg[key]!r}; runs are not comparable"
            )
    ignored = tuple(ignore_kinds)
    base_cpus = baseline.get("environment", {}).get("cpu_count")
    cur_cpus = current.get("environment", {}).get("cpu_count")
    if (
        "time" not in ignored
        and None not in (base_cpus, cur_cpus)
        and base_cpus != cur_cpus
        and any(
            m.get("kind", "time") == "time"
            for wl in baseline["workloads"].values()
            for m in wl.get("metrics", {}).values()
        )
    ):
        raise PerfError(
            f"time metrics compared across cpu_count {base_cpus} (baseline) "
            f"and {cur_cpus} (current); wall times are only comparable on "
            f"one machine, so pass ignore_kinds=('time',)"
        )
    report = ComparisonReport(ignored_kinds=ignored)

    base_wl = baseline["workloads"]
    cur_wl = current["workloads"]
    for wl_name in sorted(base_wl):
        base_metrics = base_wl[wl_name].get("metrics", {})
        cur_metrics = cur_wl.get(wl_name, {}).get("metrics", {})
        for m_name in sorted(base_metrics):
            b = base_metrics[m_name]
            kind = b.get("kind", "time")
            if kind in ignored:
                continue
            tol = float(b.get("tol", 0.0)) * tolerance_scale
            c = cur_metrics.get(m_name)
            if c is None:
                report.comparisons.append(
                    MetricComparison(
                        workload=wl_name,
                        metric=m_name,
                        kind=kind,
                        baseline=float(b["median"]),
                        current=None,
                        tolerance=tol,
                        ratio=None,
                        status="missing",
                    )
                )
                continue
            status, ratio = _classify(
                float(b["median"]), float(c["median"]), kind, tol
            )
            report.comparisons.append(
                MetricComparison(
                    workload=wl_name,
                    metric=m_name,
                    kind=kind,
                    baseline=float(b["median"]),
                    current=float(c["median"]),
                    tolerance=tol,
                    ratio=ratio,
                    status=status,
                )
            )
    # Metrics that exist only in the current run: informational.
    for wl_name in sorted(cur_wl):
        base_metrics = base_wl.get(wl_name, {}).get("metrics", {})
        for m_name in sorted(cur_wl[wl_name].get("metrics", {})):
            c = cur_wl[wl_name]["metrics"][m_name]
            if m_name in base_metrics or c.get("kind", "time") in ignored:
                continue
            report.comparisons.append(
                MetricComparison(
                    workload=wl_name,
                    metric=m_name,
                    kind=c.get("kind", "time"),
                    baseline=None,
                    current=float(c["median"]),
                    tolerance=0.0,
                    ratio=None,
                    status="new",
                )
            )
    return report
