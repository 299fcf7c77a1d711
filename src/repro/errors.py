"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``KeyError``, ...) propagate.

Errors carry *structured details*: any keyword arguments passed at
raise time (``TaskError("worker 3 failed", worker=3, root=17)``) become
both attributes on the instance and entries in :attr:`ReproError.details`,
so the flight recorder and tests can assert on ``exc.worker`` /
``exc.rank`` programmatically instead of parsing the message string.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Args:
        *args: the usual exception message arguments.
        **details: structured, JSON-safe context (``worker=``, ``rank=``,
            ``root=``, ...), exposed as attributes and via
            :attr:`details`.
    """

    def __init__(self, *args: object, **details: Any) -> None:
        super().__init__(*args)
        #: Structured raise-time context, e.g. ``{"worker": 3, "root": 17}``.
        self.details: Dict[str, Any] = details
        for key, value in details.items():
            setattr(self, key, value)


class GraphError(ReproError):
    """Raised for structurally invalid graphs or out-of-range vertices."""


class GraphFormatError(GraphError):
    """Raised when parsing a graph file that violates its declared format."""


class IndexError_(ReproError):
    """Raised for invalid use of a distance index (e.g. querying before
    build), and by ``verify_against_dijkstra`` for a distance that
    disagrees with Dijkstra.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`.
    """


class NotIndexedError(IndexError_):
    """Raised when querying an index whose build has not completed."""


class OrderingError(ReproError):
    """Raised when a vertex ordering is not a permutation of the vertices."""


class SimulationError(ReproError):
    """Raised for inconsistent simulator configuration or state."""


class CommError(SimulationError):
    """Raised for misuse of the simulated message-passing layer."""


class TaskError(ReproError):
    """Raised by task managers for invalid assignment requests."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for unknown experiments or bad params."""


class CheckError(ReproError):
    """Raised by the correctness tooling (:mod:`repro.check`) for invalid
    configuration: unknown rules, malformed suppression files, or an
    index that fails invariant verification in strict mode."""
