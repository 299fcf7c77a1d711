"""Runtime switches for the observability layer.

Metrics (counter bumps) are **default-on**: they cost a handful of lock
acquisitions per root search / per request, which profiling shows is
well under the acceptance budget (<10 % on ``build_serial``).  Tracing
is **opt-in** because span records allocate and the flight recorder's
ring retains references; enable it with::

    from repro import obs
    obs.configure(tracing=True)

which also grows the ring to at least
:data:`repro.obs.flightrec.RING_CAPACITY` events.

Hot call sites read the module-level ``METRICS`` / ``TRACING`` booleans
directly (one attribute lookup) instead of going through a function, so
a disabled layer costs a single dict hit per instrumented operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import flightrec as _flightrec

__all__ = ["ObsConfig", "configure", "current_config"]

#: Fast-path flags, mirrored from the active :class:`ObsConfig`.
METRICS: bool = True
TRACING: bool = False
QLOG_SAMPLE: float = 1.0


@dataclass(frozen=True)
class ObsConfig:
    """A snapshot of the observability configuration.

    Attributes:
        metrics: whether counter/gauge/histogram updates are recorded.
        tracing: whether spans and events are captured.
        qlog_sample: fraction of served queries the query-log recorder
            captures when one is installed (1.0 = every query, 0.0 =
            none; see :mod:`repro.obs.qlog`).
    """

    metrics: bool = True
    tracing: bool = False
    qlog_sample: float = 1.0


def configure(
    metrics: bool | None = None,
    tracing: bool | None = None,
    qlog_sample: float | None = None,
) -> ObsConfig:
    """Update the global observability configuration.

    Only the arguments passed (non-``None``) are changed.  Returns the
    resulting configuration snapshot.  Turning tracing on grows the
    flight recorder's ring to at least
    :data:`~repro.obs.flightrec.RING_CAPACITY`; turning it off leaves
    the ring as it is, so the spans it holds survive.

    Raises:
        ValueError: for a sampling fraction outside ``[0, 1]``.
    """
    global METRICS, TRACING, QLOG_SAMPLE
    if metrics is not None:
        METRICS = bool(metrics)
    if tracing is not None:
        TRACING = bool(tracing)
        if TRACING:
            _flightrec.get_recorder().reserve(_flightrec.RING_CAPACITY)
    if qlog_sample is not None:
        if not 0.0 <= qlog_sample <= 1.0:
            raise ValueError("qlog_sample must be in [0, 1]")
        QLOG_SAMPLE = float(qlog_sample)
    return current_config()


def current_config() -> ObsConfig:
    """The active configuration as an immutable snapshot."""
    return ObsConfig(
        metrics=METRICS,
        tracing=TRACING,
        qlog_sample=QLOG_SAMPLE,
    )
