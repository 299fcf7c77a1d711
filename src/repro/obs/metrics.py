"""A thread-safe metrics registry: counters, gauges, histograms.

Zero-dependency (stdlib only) and deliberately small: three metric
kinds, optional label dimensions, and a registry that hands out
idempotent handles so modules can declare their instruments at import
time.  The value surface is designed for two consumers:

* :func:`MetricsRegistry.snapshot` — a JSON-safe structure for the
  ``{"op": "metrics"}`` service endpoint and benchmark result files;
* :func:`repro.obs.export.prometheus_text` — Prometheus text
  exposition.

Concurrency: every labeled series owns one ``threading.Lock`` taken
only for the few arithmetic operations of an update, so concurrent
worker threads (see :mod:`repro.parallel.threads`) can bump shared
counters without losing increments.  Reads (``value()`` / snapshots)
take the same lock and therefore see consistent values.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "ObsError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "histogram_quantile",
    "histogram_bucket_counts",
    "merge_histogram_snapshot",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_QUANTILES",
]


class ObsError(ReproError):
    """Raised for invalid use of the observability layer."""


#: Default histogram buckets for request latencies, seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")

#: The quantiles summaries report by default (p50 / p95 / p99).
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def histogram_quantile(snapshot: Dict[str, object], q: float) -> float:
    """Estimate the *q*-quantile from a histogram snapshot.

    Prometheus-style linear interpolation inside the bucket containing
    the target rank, assuming observations are uniformly spread within
    each bucket (lower edge 0 for the first bucket).  A rank landing in
    the ``+Inf`` bucket is clamped to the highest finite bound — the
    estimate cannot exceed what the buckets can resolve.

    Args:
        snapshot: a histogram ``value()`` dict (``buckets``/``count``).
        q: quantile in ``[0, 1]``.

    Returns:
        The estimated quantile, or ``nan`` for an empty histogram.

    Raises:
        ObsError: for a quantile outside ``[0, 1]``.
    """
    if not 0.0 <= q <= 1.0:
        raise ObsError(f"quantile must be in [0, 1], got {q}")
    count = int(snapshot["count"])  # type: ignore[arg-type]
    if count == 0:
        return float("nan")
    rank = q * count
    prev_bound = 0.0
    prev_cum = 0
    for bound, cumulative in snapshot["buckets"]:  # type: ignore[union-attr]
        cum = int(cumulative)
        if cum >= rank:
            if bound == "+Inf":
                return prev_bound
            upper = float(bound)
            if cum == prev_cum:
                return upper
            frac = (rank - prev_cum) / (cum - prev_cum)
            return prev_bound + (upper - prev_bound) * frac
        if bound != "+Inf":
            prev_bound = float(bound)
        prev_cum = cum
    return prev_bound


def histogram_bucket_counts(snapshot: Dict[str, object]) -> List[int]:
    """Per-bucket (non-cumulative) counts of a histogram snapshot.

    The inverse of the cumulative ``buckets`` encoding: element ``i``
    is the number of observations that landed in bucket ``i`` (the
    last element is the ``+Inf`` bucket).
    """
    out: List[int] = []
    prev = 0
    for _bound, cumulative in snapshot["buckets"]:  # type: ignore[union-attr]
        cum = int(cumulative)
        out.append(cum - prev)
        prev = cum
    return out


def merge_histogram_snapshot(
    target: "Histogram" | "_HistogramSeries", snapshot: Dict[str, object]
) -> None:
    """Merge a histogram snapshot (or delta) into *target*, in place.

    This is the collector's histogram-merge primitive: adding the
    snapshot's per-bucket counts, sum and count to the target series is
    exactly equivalent to having observed the snapshot's underlying
    stream on the target directly — counts, sums and bucket contents
    (including ``+Inf``) are exact, and quantile estimates agree to
    bucket resolution by construction.  The property tests in
    ``tests/test_telemetry.py`` pin this equivalence.

    Args:
        target: a :class:`Histogram` (its unlabeled series) or one
            labeled ``_HistogramSeries`` obtained via ``.labels()``.
        snapshot: a ``value()`` dict — cumulative ``buckets`` with the
            trailing ``"+Inf"`` bound, plus ``sum`` and ``count``.

    Raises:
        ObsError: when the bucket bounds disagree — merging across
            different bucket layouts silently mis-bins, so it is
            refused outright.
    """
    series = target._default() if isinstance(target, Histogram) else target
    bounds = tuple(
        float(b)
        for b, _c in snapshot["buckets"]  # type: ignore[union-attr]
        if b != "+Inf"
    )
    if bounds != series._bounds:
        raise ObsError(
            f"cannot merge histogram snapshots with different buckets: "
            f"{bounds} vs {series._bounds}"
        )
    counts = histogram_bucket_counts(snapshot)
    with series._lock:
        for i, c in enumerate(counts):
            series._counts[i] += c
        series._sum += float(snapshot["sum"])  # type: ignore[arg-type]
        series._count += int(snapshot["count"])  # type: ignore[arg-type]


class _Series:
    """One labeled time series of a counter or gauge."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (counters require it non-negative; see callers)."""
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class _CounterSeries(_Series):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError("counters can only increase")
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:  # pragma: no cover - guard
        raise ObsError("counters cannot be set; use inc()")


class _GaugeSeries(_Series):
    __slots__ = ()

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount


class _HistogramSeries:
    """One labeled series of a fixed-bucket histogram.

    Bucket semantics follow Prometheus: ``bounds[i]`` is the *inclusive*
    upper edge of bucket ``i`` (``value <= bound``), with an implicit
    ``+Inf`` bucket at the end.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record *count* observations of *value* under one lock."""
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += count
            self._sum += value * count
            self._count += count

    def value(self) -> Dict[str, object]:
        """Snapshot: cumulative bucket counts, sum and count."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            s = self._sum
        cumulative: List[List[object]] = []
        running = 0
        # The +Inf bound is emitted as the string "+Inf" to stay strictly
        # JSON-safe (JSON has no infinity literal).
        bounds: List[object] = list(self._bounds) + ["+Inf"]
        for bound, c in zip(bounds, counts):
            running += c
            cumulative.append([bound, running])
        return {"buckets": cumulative, "sum": s, "count": total}

    def quantile(self, q: float) -> float:
        """Streaming *q*-quantile estimate (bucket interpolation)."""
        return histogram_quantile(self.value(), q)

    def quantiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[float, float]:
        """Several quantile estimates from one snapshot."""
        snap = self.value()
        return {q: histogram_quantile(snap, q) for q in qs}

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._sum = 0.0
            self._count = 0


class _Metric:
    """Base: a named metric with zero or more label dimensions."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> None:
        _validate_name(name)
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}
        if not self.label_names:
            self._series[()] = self._new_series()

    def _new_series(self):
        raise NotImplementedError

    def labels(self, **labels: object):
        """The series for one label combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ObsError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.label_names)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, self._new_series())
        return series

    def _default(self):
        if self.label_names:
            raise ObsError(
                f"{self.name} has labels {self.label_names}; use .labels()"
            )
        return self._series[()]

    def series_items(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Stable (label values, series) pairs for exporters."""
        with self._lock:
            return sorted(self._series.items())

    def reset(self) -> None:
        """Zero every series in place (handles stay valid)."""
        with self._lock:
            series = list(self._series.values())
        for s in series:
            s._reset()  # type: ignore[attr-defined]

    def snapshot_series(self) -> List[Dict[str, object]]:
        out = []
        for key, series in self.series_items():
            out.append(
                {
                    "labels": dict(zip(self.label_names, key)),
                    "value": series.value(),  # type: ignore[attr-defined]
                }
            )
        return out


class Counter(_Metric):
    """A monotonically increasing value (events, totals, seconds spent)."""

    kind = "counter"

    def _new_series(self) -> _CounterSeries:
        return _CounterSeries()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the (unlabeled) series."""
        self._default().inc(amount)

    def value(self) -> float:
        """Current value of the (unlabeled) series."""
        return self._default().value()


class Gauge(_Metric):
    """A value that can go up and down (sizes, phase timings)."""

    kind = "gauge"

    def _new_series(self) -> _GaugeSeries:
        return _GaugeSeries()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def value(self) -> float:
        return self._default().value()


class Histogram(_Metric):
    """A fixed-bucket distribution (latencies, delta sizes).

    Args:
        name: metric name.
        help: one-line description.
        buckets: strictly increasing inclusive upper bounds; an implicit
            ``+Inf`` bucket is always appended.
        labels: label dimension names.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Sequence[str] = (),
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObsError(f"{name}: histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObsError(f"{name}: buckets must be strictly increasing")
        if bounds and bounds[-1] == _INF:
            bounds = bounds[:-1]
        self.buckets = bounds
        super().__init__(name, help, labels)

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self.buckets)

    def observe(self, value: float, count: int = 1) -> None:
        """Record *count* observations of *value* on the (unlabeled)
        series."""
        self._default().observe(value, count)

    def value(self) -> Dict[str, object]:
        """Snapshot of the (unlabeled) series."""
        return self._default().value()

    def quantile(self, q: float) -> float:
        """Streaming *q*-quantile of the (unlabeled) series."""
        return self._default().quantile(q)

    def quantiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[float, float]:
        """Several quantiles of the (unlabeled) series."""
        return self._default().quantiles(qs)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ObsError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ObsError(f"invalid metric name {name!r}")


class MetricsRegistry:
    """A named collection of metrics.

    Registration is idempotent: asking twice for the same name returns
    the same object, so modules can declare instruments at import time
    and tests can re-import freely.  Re-registering a name with a
    different kind, label set or buckets is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    def _register(self, cls, name: str, help: str, labels, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(
                    labels
                ):
                    raise ObsError(
                        f"metric {name!r} already registered with a "
                        f"different kind or labels"
                    )
                if kwargs.get("buckets") is not None and existing.buckets != tuple(
                    float(b) for b in kwargs["buckets"]
                ):
                    raise ObsError(
                        f"histogram {name!r} already registered with "
                        f"different buckets"
                    )
                return existing
            metric = (
                cls(name, help, labels=labels, **{
                    k: v for k, v in kwargs.items() if v is not None
                })
                if cls is Histogram
                else cls(name, help, labels=labels)
            )
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter."""
        return self._register(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge."""
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Sequence[str] = (),
    ) -> Histogram:
        """Register (or fetch) a histogram."""
        return self._register(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        """The metric registered under *name*, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> List[_Metric]:
        """All metrics, sorted by name (for exporters)."""
        with self._lock:
            return [self._metrics[n] for n in sorted(self._metrics)]

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-safe dump of every metric and series.

        Counter/gauge series carry a float ``value``; histogram series
        carry ``{"buckets": [[upper_bound, cumulative_count], ...],
        "sum": ..., "count": ...}``.
        """
        return [
            {
                "name": m.name,
                "kind": m.kind,
                "help": m.help,
                "series": m.snapshot_series(),
            }
            for m in self.collect()
        ]

    def reset(self) -> None:
        """Zero every series of every metric (registrations survive)."""
        for metric in self.collect():
            metric.reset()


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry used by the instrumentation."""
    return _default_registry
