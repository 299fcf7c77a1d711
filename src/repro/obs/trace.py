"""Spans and instant events, recorded on the flight recorder's ring.

A **span** covers an interval (a root search, a sync round, a request);
an **event** marks an instant.  With tracing on, both are appended to
the process's flight-recorder ring (:mod:`repro.obs.flightrec`) as
ordinary flight events, so a failure dump, the telemetry relay and
``parapll timeline`` read one stream.  A span is appended when it
closes, taking its ``seq`` then like every other event; its event
carries ``dur`` (``mono`` is its end), its ``span_id`` and its
``parent_id``.  An instant event carries the ``parent_id`` of the
innermost open span.

Parentage is tracked with a thread-local stack of open span ids, drawn
from a per-process counter: spans opened on the same thread nest;
events attach to the innermost open span.  A simulated timestamp is an
ordinary attribute — the discrete-event simulator passes ``ts=<sim
seconds>`` with ``clock="sim"``, so real and simulated builds share one
schema (see DESIGN.md §7).

The module-level :func:`span` / :func:`event` helpers are the
instrumented code's entry points — they are no-ops (one boolean check)
unless tracing was enabled via :func:`repro.obs.configure`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import config as _config
from repro.obs import flightrec as _flightrec

__all__ = ["span", "event", "open_span_id"]

_span_ids = itertools.count(1)
_local = threading.local()


def _stack() -> List[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def open_span_id() -> Optional[int]:
    """The id of the calling thread's innermost open span, if any."""
    stack = _stack()
    return stack[-1] if stack else None


class _ActiveSpan:
    """Context manager for one open span."""

    __slots__ = ("_name", "_attrs", "_start", "_id", "_parent")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        self._id = next(_span_ids)
        stack = _stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._id)
        self._start = time.monotonic()
        return self

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span before it closes."""
        self._attrs.update(attrs)

    def __exit__(self, *exc: Any) -> None:
        stack = _stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        _flightrec.get_recorder().record_trace(
            self._name, self._attrs, self._parent, self._id, self._start
        )


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """A traced span if tracing is on, else a shared no-op."""
    if not _config.TRACING:
        return _NULL_SPAN
    return _ActiveSpan(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an instant event (no-op when tracing is off)."""
    if not _config.TRACING:
        return
    _flightrec.get_recorder().record_trace(name, attrs, open_span_id())
