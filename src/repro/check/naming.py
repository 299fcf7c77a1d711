"""Lock and thread identities shared by the dynamic analysis engines.

``repro.check.hooks.make_lock`` names locks by *call site* ("the
ThreadComm gather lock"), not by *instance* — two communicators both
register ``"ThreadComm._gather_lock"``.  Analyses keyed on the name
(the deadlock lock-order graph, vector-clock lock clocks) would
silently merge the acquisition histories of distinct locks, which both
hides real inversions (an edge recorded on instance A pairs with an
edge from instance B) and fabricates impossible ones.
:class:`LockNameRegistry` keeps the human name as the *base* and
appends a per-instance ``#k`` suffix from the second registration on,
so every lock object owns a unique identity while reports stay
readable.

:func:`base_name` strips the suffix (and any dotted/``self.`` prefix)
back off for the heuristic matching the deadlock analyzer does between
runtime lock names and static ``with <expr>`` source text.

:class:`ThreadTokens` names threads: unlike ``threading.get_ident()``,
which CPython hands to the next thread once one exits, a token is
never reused, so a short-lived thread started after another one has
finished is still a different thread to the race engines.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict

__all__ = ["LockNameRegistry", "ThreadTokens", "base_name"]


class LockNameRegistry:
    """Allocates unique display names for possibly-duplicate lock names.

    Not thread-safe by itself: engines call :meth:`unique` from
    ``make_lock``, which happens under their own state lock (or before
    threads exist).
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def unique(self, name: str) -> str:
        """*name* on first registration, ``name#2``/``name#3``... after."""
        count = self._counts.get(name, 0) + 1
        self._counts[name] = count
        return name if count == 1 else f"{name}#{count}"


def base_name(name: str) -> str:
    """The comparable base of a lock identity.

    Strips the per-instance ``#k`` suffix and every dotted qualifier:
    ``"ThreadComm._gather_lock#2"`` and the static source text
    ``"self._gather_lock"`` both normalise to ``"_gather_lock"``, which
    is what lets runtime acquisition edges pair with static nested
    ``with`` blocks.
    """
    head, _, _ = name.partition("#")
    return head.rsplit(".", 1)[-1].strip()


class ThreadTokens:
    """Hands each thread that asks an id no other thread ever gets."""

    def __init__(self) -> None:
        self._next = itertools.count(1)
        self._local = threading.local()

    def current(self) -> int:
        """The calling thread's token, allocated on its first call."""
        try:
            return self._local.token
        except AttributeError:
            token = self._local.token = next(self._next)
            return token
