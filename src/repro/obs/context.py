"""``TraceContext``: cross-rank trace propagation for stitched traces.

A build or query that spans several ranks produces spans on several
threads (or on the simulator's driver), and without a shared identifier
those spans are just co-located lines in one ring buffer.  A
:class:`TraceContext` is the compact envelope header that stitches them
together: a ``trace_id`` naming the whole operation, the sender's open
``span_id`` (so a receive can point back at the exact send site) and the
sender's ``rank``.

The communicators (:class:`~repro.cluster.comm.SimComm`,
:class:`~repro.cluster.threadcomm.ThreadComm`) stamp the *current*
context onto every ``send``/``bcast``/``allgather`` payload by wrapping
it in an :class:`Envelope`, and unwrap on the receive side — user
payloads are never touched.  Each delivery is recorded as a matched
``comm_send``/``comm_recv`` event pair sharing a ``flow_id``;
:func:`repro.obs.timeline.chrome_trace` turns those pairs into Chrome
trace *flow events* (``ph: "s"``/``"f"``), which Perfetto renders as
arrows between rank tracks.

The current context is thread-local: a driver creates one with
:func:`new_context`, each rank thread activates a per-rank child via
:func:`activate`, and instrumented code reads it with :func:`current`.
Everything here is allocation-light and lock-free; with tracing off the
only residual cost is one envelope object per message.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = [
    "TraceContext",
    "Envelope",
    "new_context",
    "current",
    "set_current",
    "activate",
    "stamp",
    "unwrap",
    "next_flow_id",
]

_local = threading.local()

#: Monotone per-process counters for trace and flow identifiers.  The
#: pid prefix keeps ids from different processes distinct when their
#: dumps are merged into one trace.
_trace_ids = itertools.count(1)
_flow_ids = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """The propagated header of one distributed trace.

    Attributes:
        trace_id: identifier shared by every span/event of one logical
            operation (a build, a query), across all ranks.
        span_id: the sender's innermost open span at stamp time, so the
            receive side can reference the exact send site (``None``
            when no span was open).
        rank: the stamping rank (``None`` outside rank code).
    """

    trace_id: str
    span_id: Optional[int] = None
    rank: Optional[int] = None

    def child(
        self,
        rank: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> "TraceContext":
        """A derived context sharing the trace id."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=self.span_id if span_id is None else span_id,
            rank=self.rank if rank is None else rank,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe envelope form (the documented wire format)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "rank": self.rank,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        """Inverse of :meth:`to_dict`."""
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=data.get("span_id"),
            rank=data.get("rank"),
        )


class Envelope:
    """A payload stamped with its sender's :class:`TraceContext`.

    Communicators construct these internally; user code never sees one.
    ``flow_id`` names one delivery edge (send -> receive) so the two
    trace events of the edge can be matched up at export time.
    """

    __slots__ = ("payload", "ctx", "flow_id")

    def __init__(
        self,
        payload: Any,
        ctx: Optional[TraceContext],
        flow_id: Optional[str] = None,
    ) -> None:
        self.payload = payload
        self.ctx = ctx
        self.flow_id = flow_id if flow_id is not None else next_flow_id()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Envelope(flow_id={self.flow_id!r}, ctx={self.ctx!r})"


def new_context(rank: Optional[int] = None) -> TraceContext:
    """A fresh root context with a process-unique trace id."""
    return TraceContext(
        trace_id=f"t{os.getpid()}-{next(_trace_ids)}", rank=rank
    )


def next_flow_id() -> str:
    """A process-unique id for one message-delivery edge."""
    return f"f{os.getpid()}-{next(_flow_ids)}"


def current() -> Optional[TraceContext]:
    """The calling thread's active context, or ``None``."""
    return getattr(_local, "ctx", None)


def set_current(ctx: Optional[TraceContext]) -> None:
    """Replace the calling thread's active context."""
    _local.ctx = ctx


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Scope *ctx* as the thread's current context; restores on exit."""
    previous = current()
    set_current(ctx)
    try:
        yield ctx
    finally:
        set_current(previous)


def stamp(payload: Any, rank: Optional[int] = None) -> Envelope:
    """Wrap *payload* in an :class:`Envelope` carrying the current context.

    The stamped context records the caller's innermost open span (when
    tracing is on) so receive events can point back at the send site.
    """
    ctx = current()
    if ctx is not None and rank is not None and ctx.rank != rank:
        ctx = ctx.child(rank=rank)
    if ctx is not None:
        span_id = _open_span_id()
        if span_id is not None and span_id != ctx.span_id:
            ctx = ctx.child(span_id=span_id)
    return Envelope(payload, ctx)


def unwrap(obj: Any) -> Tuple[Any, Optional[TraceContext], Optional[str]]:
    """``(payload, ctx, flow_id)`` for envelopes; passthrough otherwise."""
    if isinstance(obj, Envelope):
        return obj.payload, obj.ctx, obj.flow_id
    return obj, None, None


def _open_span_id() -> Optional[int]:
    """The id of the calling thread's innermost open span, if any."""
    from repro.obs import config as _config

    if not _config.TRACING:
        return None
    from repro.obs import trace as _trace

    return _trace.open_span_id()
