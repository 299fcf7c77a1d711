"""The telemetry wire format: stream header, frame kinds, metric deltas.

Every observability layer (metrics, the flight recorder and the spans
it holds) lives in module-level in-process state that goes dark across a
``fork``/``spawn`` boundary, the boundary ParaPLL's rank x thread story
is about.  :mod:`repro.obs.relay` ships that state to a collector in
another process; this module defines what goes over the wire.

There is no separate event queue.  Producers call
:func:`repro.obs.flightrec.record` (and, with tracing on,
:mod:`repro.obs.trace` appends spans to the same ring), the flight
recorder's ring is the process's only event buffer, and the relay reads
its tail by ``seq`` cursor (:class:`~repro.obs.flightrec.RingCursor`).
An event evicted from the ring before the relay shipped it is counted
as dropped.

Wire schema (``parapll-telemetry/3``): a stream of JSON objects.  The
first is a header identifying the source process::

    {"kind": "header", "schema": "parapll-telemetry/3",
     "pid": 4242, "rank": 1, "capacity": 4096}

``capacity`` is the source's event-ring size.  Every following object
is one frame::

    {"kind": "metrics" | "events",
     "seq": 17, "ts": 1754650000.1, "mono": 12.482,
     "dropped": 0,        # cumulative events evicted before shipping
     "lag": 0.003,        # monotonic age of the oldest event shipped
     "payload": [...]}

* ``metrics`` — per-series *deltas* since the previous metrics frame
  (see :class:`MetricsDelta`); counters and histograms ship increments
  so the collector can merge by summing, gauges ship current values
  for last-write-wins.
* ``events`` — flight-recorder events (``seq``, ``ts``, ``mono``,
  ``kind``, ``thread``, ``attrs``), including the build monitor's
  ``build_progress`` snapshots and, with tracing on, spans (which add
  ``span_id``, ``parent_id`` and ``dur``).

Clock discipline: ``ts`` is wall time, for event timestamps in merged
output; ``mono`` is monotonic, for every *interval* (lag, flush age).
A stepped wall clock must not fake a telemetry stall.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import flightrec as _flightrec
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    histogram_bucket_counts,
)

__all__ = [
    "TELEMETRY_SCHEMA",
    "FRAME_KINDS",
    "MetricsDelta",
    "stream_header",
]

TELEMETRY_SCHEMA = "parapll-telemetry/3"

#: The frame kinds the wire schema carries.
FRAME_KINDS = ("metrics", "events")

#: An alias, not a second hook: the benchmark ledger's tracer
#: (``bench/ledger/trace.py``) patches this module attribute by name, so
#: it must resolve.  Producers call :func:`repro.obs.flightrec.record`.
#: The alias stays although one event pipeline has no use for it:
#: deleting it would break that tracer, which lives in the benchmark
#: tree and changes only together with the benchmark.
publish_event = _flightrec.record


def stream_header(rank: Optional[int], capacity: int) -> Dict[str, Any]:
    """The ``parapll-telemetry/3`` stream header for this process."""
    return {
        "kind": "header",
        "schema": TELEMETRY_SCHEMA,
        "pid": os.getpid(),
        "rank": rank,
        "capacity": capacity,
    }


class MetricsDelta:
    """Per-series registry deltas between successive collections.

    The relay ships metric *deltas*, not cumulative snapshots, so the
    collector's merge is a plain sum for counters and histograms — two
    children and the parent can all bump the same counter and the
    merged total is exact, with no per-source bookkeeping in the parent
    registry.  Gauges are the exception: they ship current values and
    merge last-write-wins (tagged by source at the collector).

    A registry ``reset()`` between collections makes a cumulative value
    go backwards; that is detected per series and the post-reset value
    is shipped as the delta (the pre-reset increments were already
    shipped).

    The first collection ships each series' full cumulative value: a
    client attaching mid-process relays the story so far, so after any
    sequence of collections the shipped deltas sum to the source
    registry's cumulative total — the invariant the collector's merge
    relies on.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._last: Dict[Tuple[str, Tuple[str, ...]], Any] = {}

    def collect(self) -> List[Dict[str, Any]]:
        """Deltas since the previous call (empty series are skipped)."""
        out: List[Dict[str, Any]] = []
        for metric in self._registry.collect():
            for key, series in metric.series_items():
                value = series.value()  # type: ignore[attr-defined]
                k = (metric.name, key)
                entry = {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "labels": dict(zip(metric.label_names, key)),
                }
                if metric.kind == "histogram":
                    counts = histogram_bucket_counts(value)
                    last = self._last.get(k)
                    if last is not None and all(
                        c >= l for c, l in zip(counts, last["counts"])
                    ):
                        dcounts = [
                            c - l for c, l in zip(counts, last["counts"])
                        ]
                        dsum = value["sum"] - last["sum"]
                        dcount = value["count"] - last["count"]
                    else:  # first sight or reset
                        dcounts = counts
                        dsum = value["sum"]
                        dcount = value["count"]
                    self._last[k] = {
                        "counts": counts,
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                    if dcount == 0:
                        continue
                    entry["delta"] = {
                        "bounds": [
                            b for b, _c in value["buckets"] if b != "+Inf"
                        ],
                        "counts": dcounts,
                        "sum": dsum,
                        "count": dcount,
                    }
                elif metric.kind == "counter":
                    last = self._last.get(k, 0.0)
                    delta = value - last if value >= last else value
                    self._last[k] = value
                    if delta == 0:
                        continue
                    entry["delta"] = delta
                else:  # gauge: ship the current value when it changed
                    last = self._last.get(k)
                    self._last[k] = value
                    if last is not None and value == last:
                        continue
                    entry["value"] = value
                out.append(entry)
        return out
