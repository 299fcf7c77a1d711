"""No-op hook points the runtime calls into the race sanitizer through.

This module is the *only* part of :mod:`repro.check` that runtime code
(``repro.parallel``, ``repro.cluster``, ``repro.sim``,
``repro.service``) may import — a rule the linter itself enforces
(PC005).  It therefore imports nothing from the rest of the package:
when no sanitizer is active every hook is a single global read plus a
``None`` check, cheap enough to leave in hot-ish paths (locks are
created once, accesses are recorded per task, never per label probe).

Two hook families, both consumed by the happens-before vector-clock
detector (:mod:`repro.check.vectorclock`):

* **access surface** (``make_lock`` / ``access`` / ``wrap_store``) —
  tracked locks and the shared locations they order.
* **synchronization events** (``fork`` / ``join`` / ``send`` /
  ``recv`` / ``barrier``) — the remaining happens-before edges:
  thread creation/join in the builders, comm envelope send/receive in
  ``SimComm``/``ThreadComm``, and barrier arrive/depart pairs.

The active sanitizer registers itself via :func:`set_active`.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

__all__ = [
    "set_active",
    "get_active",
    "is_active",
    "make_lock",
    "access",
    "wrap_store",
    "unwrap_store",
    "fork",
    "join",
    "send",
    "recv",
    "barrier",
]

#: The active sanitizer object, or ``None``.  Typed loosely on purpose:
#: this module must not import :mod:`repro.check.vectorclock`.
_active: Optional[Any] = None


def set_active(sanitizer: Optional[Any]) -> None:
    """Install (or, with ``None``, remove) the active sanitizer."""
    global _active
    _active = sanitizer


def get_active() -> Optional[Any]:
    """The active sanitizer, or ``None``."""
    return _active


def is_active() -> bool:
    """True when a sanitizer is currently installed."""
    return _active is not None


def make_lock(name: str) -> Any:
    """A lock for *name*: plain ``threading.Lock`` normally, a tracked
    lock (carrying a vector clock) under the sanitizer."""
    s = _active
    if s is None:
        return threading.Lock()
    return s.make_lock(name)


def access(location: str, write: bool = True) -> None:
    """Record one shared-state access at *location* (no-op normally)."""
    s = _active
    if s is not None:
        s.record_access(location, write=write)


def wrap_store(store: Any) -> Any:
    """Wrap a :class:`~repro.core.labels.LabelStore` for access
    tracking; the identity function when the sanitizer is inactive."""
    s = _active
    if s is None:
        return store
    return s.wrap_store(store)


def unwrap_store(store: Any) -> Any:
    """Undo :func:`wrap_store` (after the concurrent phase ends, e.g.
    before the single-threaded ``finalize()``)."""
    inner = getattr(store, "_san_inner", None)
    return store if inner is None else inner


# ----------------------------------------------------------------------
# Synchronization events (vector-clock happens-before edges)
# ----------------------------------------------------------------------
def fork(child_name: str) -> None:
    """The calling thread is about to start a thread named *child_name*.

    Establishes the fork happens-before edge: everything the parent did
    so far happens-before everything the child will do.
    """
    s = _active
    if s is not None:
        s.thread_fork(child_name)


def join(child_name: str) -> None:
    """The calling thread has joined the thread named *child_name*.

    Establishes the join edge: everything the child did happens-before
    everything the caller does from here on.
    """
    s = _active
    if s is not None:
        s.thread_join(child_name)


def send(channel: str) -> Optional[Any]:
    """Record one message departure on *channel*.

    Returns an opaque token to pass to :func:`recv` alongside the
    message (``None`` when no sanitizer is active).  The token pins the
    edge to this exact message; a token-less ``recv`` falls back to the
    channel's accumulated clock, which is sound for FIFO channels but
    coarser.
    """
    s = _active
    if s is None:
        return None
    return s.send_event(channel)


def recv(channel: str, token: Optional[Any] = None) -> None:
    """Record one message arrival on *channel* (see :func:`send`)."""
    s = _active
    if s is not None:
        s.recv_event(channel, token)


def barrier(name: str, phase: str) -> None:
    """Record a barrier crossing: ``phase`` is ``"arrive"`` (before the
    wait — merge my history into the barrier) or ``"depart"`` (after
    the wait — inherit everyone's pre-barrier history)."""
    s = _active
    if s is not None:
        s.barrier_event(name, phase)
