"""Per-query EXPLAIN: why did QUERY(s, t) return that distance?

A 2-hop-cover answer is a minimum over the common hubs of two labels,
and when the answer looks wrong — or merely expensive — the interesting
question is which hub won, how close the losers came, and how much of
each label the merge join had to scan.  :func:`explain_query` re-runs
the query on a *separate diagnostic code path*
(:func:`repro.core.query.query_candidates`): the production
:func:`~repro.core.query.query_distance` loop carries no EXPLAIN
branches, so plain queries pay nothing (guarded by the
``batch_query`` perf workload's ``explain_matches`` pin).

Each losing candidate is classified:

* ``"winner"`` — the hub realising the minimum (lowest rank on ties,
  matching :func:`~repro.core.query.query_result`);
* ``"redundant"`` — ties the winning distance through a different hub:
  an alternative optimal meeting vertex, label space the periodic
  cluster sync (the paper's ``c``) or delayed pruning paid for without
  improving this query;
* ``"dominated"`` — strictly worse than the winner.

The JSON form (:meth:`QueryExplanation.to_dict`, schema
``parapll-explain/1``) is what ``parapll explain --json`` and the
server's ``explain`` op emit; CI validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.labels import LabelStore
from repro.core.paths import isclose_distance
from repro.core.query import query_candidates

__all__ = ["EXPLAIN_SCHEMA", "HubCandidate", "QueryExplanation", "explain_query"]

EXPLAIN_SCHEMA = "parapll-explain/1"


def _encode(value: float) -> Any:
    """JSON-safe distance (``"inf"`` for unreachable, as the server)."""
    return "inf" if value == math.inf else value


@dataclass(frozen=True)
class HubCandidate:
    """One common hub of the two labels and the path cost through it.

    Attributes:
        hub_rank: the hub's position in the indexing order.
        hub: the hub's vertex id (``None`` when no ordering was given).
        d_s: distance hub -> s.
        d_t: distance hub -> t.
        total: ``d_s + d_t``, the candidate answer through this hub.
        role: ``"winner"`` / ``"redundant"`` / ``"dominated"``.
        slack: how far this candidate is above the winning distance
            (0.0 for the winner and redundant ties).
    """

    hub_rank: int
    hub: Optional[int]
    d_s: float
    d_t: float
    total: float
    role: str
    slack: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form."""
        return {
            "hub_rank": self.hub_rank,
            "hub": self.hub,
            "d_s": self.d_s,
            "d_t": self.d_t,
            "total": self.total,
            "role": self.role,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class QueryExplanation:
    """The full attribution of one distance query.

    Attributes:
        s: source vertex.
        t: target vertex.
        distance: the winning distance (``inf`` when unreachable;
            exactly equal to :func:`~repro.core.query.query_distance`).
        hub: winning hub as a vertex id (``None`` if unreachable, if
            ``s == t``, or when no ordering was supplied).
        hub_rank: winning hub's rank (``None`` as above).
        candidates: every common hub, hub-rank order.
        label_size_s: entries in the finalized ``L(s)``.
        label_size_t: entries in the finalized ``L(t)``.
        scanned_s: label entries the merge join consumed on the s side.
        scanned_t: label entries consumed on the t side.
    """

    s: int
    t: int
    distance: float
    hub: Optional[int]
    hub_rank: Optional[int]
    candidates: List[HubCandidate] = field(default_factory=list)
    label_size_s: int = 0
    label_size_t: int = 0
    scanned_s: int = 0
    scanned_t: int = 0

    @property
    def reachable(self) -> bool:
        """Whether any common hub connects the two vertices."""
        return self.distance != math.inf

    def to_dict(self) -> Dict[str, Any]:
        """The documented ``parapll-explain/1`` JSON document."""
        return {
            "schema": EXPLAIN_SCHEMA,
            "s": self.s,
            "t": self.t,
            "distance": _encode(self.distance),
            "reachable": self.reachable,
            "hub": self.hub,
            "hub_rank": self.hub_rank,
            "candidates": [c.to_dict() for c in self.candidates],
            "labels": {
                "s_size": self.label_size_s,
                "t_size": self.label_size_t,
                "s_scanned": self.scanned_s,
                "t_scanned": self.scanned_t,
            },
        }

    def render(self) -> str:
        """Terminal-friendly EXPLAIN output (``parapll explain``)."""
        dist = "unreachable" if not self.reachable else f"{self.distance}"
        lines = [
            f"EXPLAIN distance({self.s}, {self.t}) = {dist}",
            f"  labels: |L({self.s})| = {self.label_size_s} "
            f"(scanned {self.scanned_s}), "
            f"|L({self.t})| = {self.label_size_t} "
            f"(scanned {self.scanned_t})",
        ]
        if self.s == self.t:
            lines.append("  trivial query: source equals target")
            return "\n".join(lines)
        if not self.candidates:
            lines.append("  no common hub: the labels never meet")
            return "\n".join(lines)
        lines.append(
            f"  {len(self.candidates)} candidate hub(s), best via "
            + (
                f"hub {self.hub}"
                if self.hub is not None
                else f"rank {self.hub_rank}"
            )
        )
        lines.append(
            "  rank      hub     d(hub,s)     d(hub,t)        total  role"
        )
        for c in self.candidates:
            hub = "-" if c.hub is None else str(c.hub)
            lines.append(
                f"  {c.hub_rank:>4} {hub:>8} {c.d_s:12.6g} {c.d_t:12.6g} "
                f"{c.total:12.6g}  {c.role}"
            )
        return "\n".join(lines)


def explain_query(
    store: LabelStore,
    s: int,
    t: int,
    order: Optional[Sequence[int]] = None,
) -> QueryExplanation:
    """Attribute ``QUERY(s, t)`` over a finalized label store.

    Args:
        store: the (finalized) label store; finalization is triggered
            if needed.
        s: source vertex.
        t: target vertex.
        order: the index's vertex ordering — when given, hub ranks are
            mapped back to vertex ids in the output.

    Returns:
        A :class:`QueryExplanation` whose ``distance`` equals
        :func:`~repro.core.query.query_distance` exactly (same floats,
        same tie-break).
    """
    store.finalize()
    candidates_raw, scanned_s, scanned_t = query_candidates(store, s, t)
    if s == t:
        return QueryExplanation(
            s=s,
            t=t,
            distance=0.0,
            hub=None,
            hub_rank=None,
            candidates=[],
            label_size_s=len(store.finalized_hubs(s)),
            label_size_t=len(store.finalized_hubs(t)),
            scanned_s=0,
            scanned_t=0,
        )

    best = math.inf
    best_rank: Optional[int] = None
    for rank, d_s, d_t in candidates_raw:
        total = d_s + d_t
        if total < best:
            best = total
            best_rank = rank

    candidates: List[HubCandidate] = []
    for rank, d_s, d_t in candidates_raw:
        total = d_s + d_t
        if rank == best_rank:
            role = "winner"
            slack = 0.0
        elif isclose_distance(total, best):
            role = "redundant"
            slack = 0.0
        else:
            role = "dominated"
            slack = total - best
        candidates.append(
            HubCandidate(
                hub_rank=rank,
                hub=int(order[rank]) if order is not None else None,
                d_s=d_s,
                d_t=d_t,
                total=total,
                role=role,
                slack=slack,
            )
        )

    hub_vertex = (
        int(order[best_rank])
        if order is not None and best_rank is not None
        else None
    )
    return QueryExplanation(
        s=s,
        t=t,
        distance=float(best),
        hub=hub_vertex,
        hub_rank=best_rank,
        candidates=candidates,
        label_size_s=len(store.finalized_hubs(s)),
        label_size_t=len(store.finalized_hubs(t)),
        scanned_s=scanned_s,
        scanned_t=scanned_t,
    )
