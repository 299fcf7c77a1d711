"""Lock-order deadlock analysis: runtime acquisition graph + static AST.

Two cooperating passes over the same invariant — *locks must be
acquired in one global order*:

* **Runtime** — :class:`LockOrderRecorder` attaches to the race
  sanitizer (its ``lock_order=`` argument) and is fed every
  acquisition made through :func:`repro.check.hooks.make_lock` locks,
  together with the set of locks the acquiring thread already holds.
  Each (held, acquiring) pair is an edge in the lock-order graph;
  a cycle in that graph is a potential deadlock even if this run's
  interleaving never actually hung.  Edges are keyed on the
  *per-instance* lock names from :class:`~repro.check.naming.LockNameRegistry`
  — merging two same-named locks would fabricate impossible cycles
  (instance A's ``a→b`` closing against instance B's ``b→a``).
* **Static** — :func:`collect_static_edges` walks the AST for nested
  ``with <lock>:`` blocks (the same "looks lockish" heuristic PC002
  uses) and records the nesting order.  A static site whose order
  inverts another static site, or inverts an edge the runtime recorder
  actually observed, is flagged even though no run has tripped it yet.

:func:`analyze` combines both into ``parapll-check/1`` findings
(rules ``DL-CYCLE`` for runtime cycles, ``DL-ORDER`` for order
inversions), consumed by ``parapll check deadlocks``.
"""

from __future__ import annotations

import ast
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.lint import iter_python_files
from repro.check.naming import base_name

__all__ = [
    "LockEdge",
    "StaticWithEdge",
    "LockOrderRecorder",
    "collect_static_edges",
    "analyze",
    "RULE_CYCLE",
    "RULE_ORDER",
]

RULE_CYCLE = "DL-CYCLE"
RULE_ORDER = "DL-ORDER"


@dataclass
class LockEdge:
    """One observed runtime ordering: *src* was held while *dst* was
    acquired.  Names are per-instance unique names."""

    src: str
    dst: str
    count: int = 0
    threads: Set[str] = field(default_factory=set)

    def render(self) -> str:
        who = ", ".join(sorted(self.threads))
        return f"{self.src} -> {self.dst} (x{self.count}, threads: {who})"


@dataclass(frozen=True)
class StaticWithEdge:
    """A nested ``with`` pair in source: *outer* held while *inner* is
    entered.  Names are normalised lock base names; the raw source
    texts ride along for the report."""

    outer: str
    inner: str
    outer_text: str
    inner_text: str
    path: str
    line: int


class LockOrderRecorder:
    """Accumulates the runtime lock-acquisition graph.

    Thread-safe; the sanitizer calls :meth:`note_acquire` from the
    acquiring thread without a global lock, so the recorder locks
    itself (which also lets tests drive it directly).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: Dict[Tuple[str, str], LockEdge] = {}
        self.acquisitions = 0

    def note_acquire(self, held: Tuple[str, ...], acquiring: str) -> None:
        """The current thread, holding *held* (in order), acquires
        *acquiring*."""
        thread = threading.current_thread().name
        with self._lock:
            self.acquisitions += 1
            for src in held:
                key = (src, acquiring)
                edge = self._edges.get(key)
                if edge is None:
                    edge = self._edges[key] = LockEdge(src, acquiring)
                edge.count += 1
                edge.threads.add(thread)

    @property
    def edges(self) -> List[LockEdge]:
        with self._lock:
            return sorted(
                self._edges.values(), key=lambda e: (e.src, e.dst)
            )

    def cycles(self) -> List[List[str]]:
        """Simple cycles in the acquisition graph (Tarjan SCCs with
        more than one node, plus self-loops from re-acquisition)."""
        with self._lock:
            graph: Dict[str, List[str]] = {}
            for src, dst in self._edges:
                graph.setdefault(src, []).append(dst)
                graph.setdefault(dst, [])
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        out: List[List[str]] = []

        def strongconnect(v: str) -> None:
            # Iterative Tarjan: (node, iterator-position) work stack.
            work = [(v, 0)]
            while work:
                node, pi = work.pop()
                if pi == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = graph[node]
                for i in range(pi, len(succs)):
                    succ = succs[i]
                    if succ not in index:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if recurse:
                    continue
                if low[node] == index[node]:
                    scc: List[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    if len(scc) > 1 or node in graph.get(node, ()):
                        out.append(sorted(scc))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        for v in sorted(graph):
            if v not in index:
                strongconnect(v)
        return out


# ----------------------------------------------------------------------
# Static pass: nested `with <lock>` blocks
# ----------------------------------------------------------------------
def _is_lockish(text: str) -> bool:
    return "lock" in text.lower()


def _with_lock_names(stmt: ast.stmt) -> List[Tuple[str, str]]:
    """``(base_name, source_text)`` for each lockish item of a With."""
    if not isinstance(stmt, (ast.With, ast.AsyncWith)):
        return []
    out: List[Tuple[str, str]] = []
    for item in stmt.items:
        try:
            text = ast.unparse(item.context_expr)
        except (ValueError, AttributeError):  # pragma: no cover
            continue
        if _is_lockish(text):
            out.append((base_name(text), text))
    return out


def _collect_file_edges(path: str, tree: ast.Module) -> List[StaticWithEdge]:
    edges: List[StaticWithEdge] = []

    def walk(stmts: Sequence[ast.stmt], held: List[Tuple[str, str]]) -> None:
        for stmt in stmts:
            names = _with_lock_names(stmt)
            if names:
                # `with a, b:` orders a before b within one statement.
                for i in range(1, len(names)):
                    prev = names[i - 1]
                    edges.append(
                        StaticWithEdge(
                            outer=prev[0], inner=names[i][0],
                            outer_text=prev[1], inner_text=names[i][1],
                            path=path, line=stmt.lineno,
                        )
                    )
                for outer in held:
                    edges.append(
                        StaticWithEdge(
                            outer=outer[0], inner=names[0][0],
                            outer_text=outer[1], inner_text=names[0][1],
                            path=path, line=stmt.lineno,
                        )
                    )
            inner_held = held + names
            for child_body in _stmt_bodies(stmt):
                # Function bodies start with an empty held set: the
                # nesting that matters is dynamic, and a def inside a
                # with does not run under that with.
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    walk(child_body, [])
                else:
                    walk(child_body, inner_held)

    walk(tree.body, [])
    return edges


def _stmt_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    out: List[List[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        body = getattr(stmt, attr, None)
        if body:
            out.append(body)
    for handler in getattr(stmt, "handlers", ()):
        out.append(handler.body)
    return out


def collect_static_edges(paths: Sequence[str]) -> List[StaticWithEdge]:
    """All nested-``with`` lock edges under *paths* (files or dirs)."""
    edges: List[StaticWithEdge] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue  # the lint engine reports unparsable files
        edges.extend(
            _collect_file_edges(path.replace(os.sep, "/"), tree)
        )
    return edges


# ----------------------------------------------------------------------
# Combined analysis -> parapll-check findings
# ----------------------------------------------------------------------
def analyze(
    paths: Sequence[str] = (),
    recorder: Optional[LockOrderRecorder] = None,
) -> List[Dict[str, Any]]:
    """Deadlock findings from the static pass over *paths* plus (when
    given) the runtime *recorder*'s acquisition graph."""
    findings: List[Dict[str, Any]] = []

    runtime_base_edges: Dict[Tuple[str, str], LockEdge] = {}
    if recorder is not None:
        for cycle in recorder.cycles():
            involved = [
                e for e in recorder.edges
                if e.src in cycle and e.dst in cycle
            ]
            findings.append(
                {
                    "kind": "deadlock-cycle",
                    "rule": RULE_CYCLE,
                    "path": None,
                    "line": None,
                    "message": (
                        "lock-acquisition cycle: "
                        + " <-> ".join(cycle)
                    ),
                    "detail": "\n".join(e.render() for e in involved),
                }
            )
        for edge in recorder.edges:
            key = (base_name(edge.src), base_name(edge.dst))
            if key[0] != key[1]:
                runtime_base_edges.setdefault(key, edge)

    static_edges = collect_static_edges(paths) if paths else []
    seen_static: Dict[Tuple[str, str], StaticWithEdge] = {}
    reported_pairs: Set[Tuple[str, str]] = set()
    for edge in static_edges:
        if edge.outer == edge.inner:
            continue
        pair = (edge.outer, edge.inner)
        inverse = (edge.inner, edge.outer)
        unordered = tuple(sorted(pair))
        prior = seen_static.get(inverse)
        if prior is not None and unordered not in reported_pairs:
            reported_pairs.add(unordered)
            findings.append(
                {
                    "kind": "lock-order-inversion",
                    "rule": RULE_ORDER,
                    "path": edge.path,
                    "line": edge.line,
                    "message": (
                        f"nested `with {edge.outer_text}` then "
                        f"`with {edge.inner_text}` inverts the order at "
                        f"{prior.path}:{prior.line}"
                    ),
                    "detail": (
                        f"{prior.path}:{prior.line} holds "
                        f"{prior.outer_text} while taking "
                        f"{prior.inner_text}; this site does the "
                        "opposite — two threads running both paths can "
                        "deadlock"
                    ),
                }
            )
        rt = runtime_base_edges.get(inverse)
        if rt is not None and ("rt",) + unordered not in reported_pairs:
            reported_pairs.add(("rt",) + unordered)  # type: ignore[arg-type]
            findings.append(
                {
                    "kind": "lock-order-inversion",
                    "rule": RULE_ORDER,
                    "path": edge.path,
                    "line": edge.line,
                    "message": (
                        f"static nesting {edge.outer} -> {edge.inner} "
                        "inverts the runtime acquisition order "
                        f"{rt.src} -> {rt.dst}"
                    ),
                    "detail": rt.render(),
                }
            )
        seen_static.setdefault(pair, edge)
    return findings
