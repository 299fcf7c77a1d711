"""The regression gate: compare two BENCH documents metric by metric.

Every suite metric is a deterministic fingerprint of the work done (see
:mod:`repro.obs.perf`), so the gate is two-sided and no metric has a
direction.  A metric is **unchanged** when ``|current/baseline - 1|``
is within the tolerance the baseline records for it, or the two differ
by no more than the kind's absolute epsilon; otherwise it is
**changed**, which fails.  A counter that falls fails like one that
grows: fewer labels can mean skipped roots, and a 0/1 pin that flips is
broken whichever way it flipped.  A baseline metric absent from the
current run is **missing** and fails (a silently dropped measurement
must not pass CI); one only in the current run is **new** and
informational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.perf import ABS_EPSILON, PerfError

__all__ = [
    "MetricComparison",
    "ComparisonReport",
    "compare",
    "STATUS_ORDER",
]

#: Severity order for report rendering (worst first).
STATUS_ORDER = ("changed", "missing", "new", "unchanged")


@dataclass
class MetricComparison:
    """One metric's verdict, one of :data:`STATUS_ORDER`.

    ``baseline`` and ``current`` are medians (``None`` for a *new* and a
    *missing* metric); ``ratio`` is ``current / baseline`` where both
    exist and the baseline is nonzero.
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

    @property
    def failures(self) -> List[MetricComparison]:
        """Comparisons that fail the gate (changed or missing)."""
        return [
            c for c in self.comparisons if c.status in ("changed", "missing")
        ]

    @property
    def ok(self) -> bool:
        """True when nothing changed and nothing went missing."""
        return not self.failures

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
        """Terminal summary; failures always listed, rest on demand."""
        counts = self.counts()
        headline = ", ".join(
            f"{n} {status}" for status, n in counts.items() if n
        ) or "nothing compared"
        lines = [f"regression gate: {headline}"]
        for c in sorted(
            self.comparisons,
            key=lambda c: (STATUS_ORDER.index(c.status), c.workload, c.metric),
        ):
            if not verbose and c.status == "unchanged":
                continue
            if c.status == "missing":
                detail = "metric missing from current run"
            elif c.status == "new":
                detail = f"new metric, current={c.current:g}"
            else:
                ratio = f"{c.ratio:.3f}x" if c.ratio is not None else "n/a"
                detail = (
                    f"{c.baseline:g} -> {c.current:g} ({ratio}, "
                    f"tol ±{c.tolerance:.0%})"
                )
            lines.append(
                f"  [{c.status:<9}] {c.workload}.{c.metric} ({c.kind}): "
                f"{detail}"
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def compare(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> ComparisonReport:
    """Compare two BENCH documents into a :class:`ComparisonReport`.

    Args:
        baseline: the reference document (e.g. the checked-in
            ``benchmarks/baseline.json``).
        current: the freshly recorded document.

    Raises:
        PerfError: for documents without a workloads section, or
            mismatched suite configs (scale / seed / dataset) — counter
            and sim metrics are only comparable between runs of the
            identical workload.
    """
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
    report = ComparisonReport()
    base_wl = baseline["workloads"]
    cur_wl = current["workloads"]
    for wl_name in sorted(set(base_wl) | set(cur_wl)):
        base_metrics = base_wl.get(wl_name, {}).get("metrics", {})
        cur_metrics = cur_wl.get(wl_name, {}).get("metrics", {})
        for m_name in sorted(set(base_metrics) | set(cur_metrics)):
            b = base_metrics.get(m_name)
            c = cur_metrics.get(m_name)
            base = None if b is None else float(b["median"])
            value = None if c is None else float(c["median"])
            tol = 0.0 if b is None else float(b.get("tol", 0.0))
            ratio = value / base if value is not None and base else None
            if b is None:  # only in the current run: informational
                status = "new"
            elif c is None:
                status = "missing"
            elif abs(value - base) <= ABS_EPSILON.get(b["kind"], 0.0) or (
                ratio is not None and abs(ratio - 1.0) <= tol
            ):
                status = "unchanged"
            else:  # a zero baseline has no ratio to scale a tolerance by
                status = "changed"
            report.comparisons.append(
                MetricComparison(
                    wl_name, m_name, (b or c)["kind"], base, value, tol,
                    ratio, status,
                )
            )
    return report
