"""Label-invariant verification for built :class:`PLLIndex` objects.

A 2-hop-cover index can be *silently* wrong: a commit-ordering bug or a
bad merge produces an index that still answers most queries correctly
and only disagrees with Dijkstra on the pairs whose shortest paths run
through the corrupted labels.  This verifier checks the structural
invariants every correct ParaPLL index must satisfy — the properties
Proposition 1's proof actually uses:

* ``hubs_sorted`` — finalized labels are strictly increasing in hub
  rank (the merge-join query requires it), with ranks in range.
* ``distances_valid`` — every stored distance is finite, non-NaN and
  non-negative (positive weights ⇒ no negative distances).
* ``self_label`` — every vertex carries its own hub at distance 0;
  the pruning test can never prune the root's own label because all
  other hubs sit at strictly positive distance.
* ``minimality`` — no label is dominated by an earlier hub: for
  ``(h, d)`` in ``L(v)``, no common hub ``h' < h`` of ``v`` and the
  hub vertex gives a path ``<= d``.  A *serial* build produces the
  canonical (minimal) labeling, so any dominated label there is a bug;
  parallel builds legitimately carry redundant labels (the paper's
  Table 5), so domination is reported as a count and only fails the
  check in ``strict_minimality`` mode.
* ``labels_exact`` — on a seeded uniform sample of label entries (all
  of them when there are fewer than ``samples``), every stored
  distance equals a fresh Dijkstra run from the entry's hub.  A
  parallel build may add redundant labels but never a wrong one
  (Proposition 1), so this is the invariant the whole system rests on.
  Entries, not sources, are sampled: the top hubs own most entries, so
  a handful of uniform sources would see almost none of them.
* ``two_hop_exact`` — on a seeded sample of pairs, index distances
  match a fresh Dijkstra run exactly (absolute tolerance for float
  summation order).

Results come back as an :class:`InvariantReport`; ``parapll check
index`` renders it, and the perf suite records the pass/fail flag and
violation counts into every ``BENCH_<tag>.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.baselines.dijkstra import dijkstra_sssp
from repro.errors import CheckError
from repro.types import INF

__all__ = ["InvariantViolation", "CheckResult", "InvariantReport", "verify_index"]


@dataclass(frozen=True)
class InvariantViolation:
    """One concrete invariant breach."""

    check: str
    detail: str
    vertex: Optional[int] = None


@dataclass
class CheckResult:
    """Outcome of one named check."""

    name: str
    status: str  # "passed" | "failed" | "skipped"
    detail: str = ""


@dataclass
class InvariantReport:
    """Everything one verification run established."""

    checks: List[CheckResult] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    #: Labels dominated by an earlier hub (redundant, not incorrect).
    redundant_labels: int = 0
    #: (source, target) pairs compared against Dijkstra.
    sampled_pairs: int = 0
    #: Label entries whose distance was compared against Dijkstra.
    checked_entries: int = 0

    @property
    def ok(self) -> bool:
        """True when no check failed (skipped checks don't fail)."""
        return all(c.status != "failed" for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def check(self, name: str) -> CheckResult:
        """Look up one check's result by name."""
        for c in self.checks:
            if c.name == name:
                return c
        raise CheckError(f"no invariant check named {name!r}")

    def render(self) -> str:
        """Terminal summary."""
        mark = {"passed": "ok", "failed": "FAIL", "skipped": "skip"}
        lines = ["index invariants:"]
        for c in self.checks:
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  {c.name:<16} {mark[c.status]}{detail}")
        for v in self.violations[:20]:
            where = f" at vertex {v.vertex}" if v.vertex is not None else ""
            lines.append(f"  violation [{v.check}]{where}: {v.detail}")
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        lines.append(
            f"  verdict: {'PASS' if self.ok else 'FAIL'} "
            f"({len(self.violations)} violation(s), "
            f"{self.redundant_labels} redundant label(s), "
            f"{self.checked_entries} checked entry(ies), "
            f"{self.sampled_pairs} sampled pair(s))"
        )
        return "\n".join(lines)


#: Cap on recorded violations per check, so a systematically broken
#: index produces a readable report instead of millions of entries.
_MAX_RECORD = 100


def verify_index(
    index,
    graph=None,
    samples: int = 64,
    seed: int = 0,
    atol: float = 1e-9,
    strict_minimality: bool = False,
    check_minimality: bool = True,
) -> InvariantReport:
    """Verify the structural invariants of a built index.

    Args:
        index: a :class:`~repro.core.index.PLLIndex`.
        graph: graph for the sampled exactness checks (defaults to
            ``index.graph``; without one they are skipped).
        samples: number of sampled label entries, and of sampled
            (source, target) pairs.
        seed: RNG seed for both samples (deterministic reports).
        atol: absolute tolerance for float distance comparison.
        strict_minimality: fail (not just count) on dominated labels —
            correct for serial builds, which are canonical.
        check_minimality: set False to skip the O(entries × avg-label)
            domination scan on very large indexes.

    Returns:
        The :class:`InvariantReport`; inspect ``report.ok``.
    """
    report = InvariantReport()
    store = index.store
    store.finalize()
    n = store.n
    rank = index.rank

    # -- hubs_sorted ---------------------------------------------------
    bad = 0
    for v in range(n):
        hubs = store.finalized_hubs(v)
        if len(hubs) and (
            int(hubs.min()) < 0 or int(hubs.max()) >= n
        ):
            bad += 1
            _record(report, "hubs_sorted", v, "hub rank out of range")
            continue
        if np.any(hubs[1:] <= hubs[:-1]):
            bad += 1
            _record(
                report, "hubs_sorted", v,
                "hub ranks not strictly increasing after finalize",
            )
    _result(report, "hubs_sorted", bad, f"{n} vertices")

    # -- distances_valid ----------------------------------------------
    bad = 0
    for v in range(n):
        dists = store.finalized_dists(v)
        if len(dists) == 0:
            continue
        if np.any(~np.isfinite(dists)) or np.any(dists < 0):
            bad += 1
            _record(
                report, "distances_valid", v,
                "non-finite or negative label distance",
            )
    _result(report, "distances_valid", bad, f"{store.total_entries} entries")

    # -- self_label ----------------------------------------------------
    bad = 0
    for v in range(n):
        r = int(rank[v])
        hubs = store.finalized_hubs(v)
        pos = int(np.searchsorted(hubs, r))
        if pos >= len(hubs) or int(hubs[pos]) != r:
            bad += 1
            _record(report, "self_label", v, "missing own hub at distance 0")
            continue
        if abs(float(store.finalized_dists(v)[pos])) > atol:
            bad += 1
            _record(
                report, "self_label", v,
                f"own-hub distance {store.finalized_dists(v)[pos]} != 0",
            )
    _result(report, "self_label", bad)

    # -- minimality (domination by an earlier hub) ---------------------
    if check_minimality:
        order = np.asarray(index.order, dtype=np.int64)
        dominated = 0
        bad = 0
        for v in range(n):
            hubs_v = store.finalized_hubs(v)
            dists_v = store.finalized_dists(v)
            for i in range(len(hubs_v)):
                h = int(hubs_v[i])
                if h == int(rank[v]):
                    continue  # the self label is never dominated
                u = int(order[h])  # the hub vertex
                if _dominated(
                    store, u, v, h, float(dists_v[i]), atol
                ):
                    dominated += 1
                    if strict_minimality:
                        bad += 1
                        _record(
                            report, "minimality", v,
                            f"label (hub rank {h}, d={float(dists_v[i])}) "
                            "dominated by an earlier common hub",
                        )
        report.redundant_labels = dominated
        if strict_minimality:
            _result(report, "minimality", bad, f"{dominated} dominated")
        else:
            _result(
                report, "minimality", 0,
                f"{dominated} redundant (allowed for parallel builds)",
            )
    else:
        report.checks.append(
            CheckResult("minimality", "skipped", "disabled")
        )

    graph = graph if graph is not None else index.graph
    skip = "no graph attached" if graph is None else (
        "samples=0" if samples <= 0 else ""
    )

    # -- labels_exact (sampled entries, vs. Dijkstra) ------------------
    if skip:
        report.checks.append(CheckResult("labels_exact", "skipped", skip))
    else:
        indptr, hubs, dists = store.finalized_arrays()
        total = len(hubs)
        picks = (
            np.arange(total) if samples >= total
            else np.sort(
                np.random.default_rng(seed).choice(
                    total, size=samples, replace=False
                )
            )
        )
        owners = np.searchsorted(indptr, picks, side="right") - 1
        picked_hubs = hubs[picks]
        bad = 0
        for h in np.unique(picked_hubs).tolist():
            at = picked_hubs == h
            if not 0 <= h < n:
                bad += int(at.sum())  # no such hub: not a true distance
                continue
            truth = np.asarray(dijkstra_sssp(graph, int(index.order[h])))
            got, want = dists[picks[at]], truth[owners[at]]
            wrong = ~np.isclose(got, want, rtol=0.0, atol=atol)
            for v, g, w in zip(
                owners[at][wrong].tolist(), got[wrong].tolist(),
                want[wrong].tolist(),
            ):
                _record(
                    report, "labels_exact", v,
                    f"label (hub rank {h}) stores {g}, Dijkstra says {w}",
                )
            bad += int(wrong.sum())
        report.checked_entries = len(picks)
        _result(
            report, "labels_exact", bad, f"{len(picks)} of {total} entries"
        )

    # -- two_hop_exact (sampled, vs. Dijkstra) -------------------------
    if skip:
        report.checks.append(CheckResult("two_hop_exact", "skipped", skip))
    else:
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, n, size=max(1, samples // 8))
        bad = 0
        for s in np.unique(sources):
            truth = dijkstra_sssp(graph, int(s))
            targets = rng.integers(0, n, size=8)
            for t in targets:
                got = index.distance(int(s), int(t))
                want = float(truth[int(t)])
                report.sampled_pairs += 1
                if got == INF and want == INF:
                    continue
                if not math.isclose(got, want, rel_tol=0.0, abs_tol=atol):
                    bad += 1
                    _record(
                        report, "two_hop_exact", int(s),
                        f"distance({int(s)}, {int(t)}) = {got}, "
                        f"Dijkstra says {want}",
                    )
        _result(
            report, "two_hop_exact", bad, f"{report.sampled_pairs} pairs"
        )

    return report


def _dominated(
    store, u: int, v: int, h: int, d: float, atol: float
) -> bool:
    """True when a common hub with rank < *h* covers (u, v) within *d*."""
    hu, du = store.finalized_hubs(u), store.finalized_dists(u)
    hv, dv = store.finalized_hubs(v), store.finalized_dists(v)
    i = j = 0
    while i < len(hu) and j < len(hv):
        a, b = int(hu[i]), int(hv[j])
        if a >= h or b >= h:
            break  # only hubs ranked earlier than h can dominate
        if a == b:
            if float(du[i]) + float(dv[j]) <= d + atol:
                return True
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return False


def _record(
    report: InvariantReport, check: str, vertex: Optional[int], detail: str
) -> None:
    if len(report.violations) < _MAX_RECORD:
        report.violations.append(
            InvariantViolation(check=check, detail=detail, vertex=vertex)
        )


def _result(
    report: InvariantReport, name: str, bad: int, detail: str = ""
) -> None:
    status = "failed" if bad else "passed"
    suffix = f"{bad} bad; {detail}" if bad and detail else detail
    report.checks.append(CheckResult(name, status, suffix))
