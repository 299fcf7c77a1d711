"""Thread-role dataflow lints: a call graph with role inference.

The per-file rules in :mod:`repro.check.lint` cannot answer "is this
function *reachable from worker code*?" — which is exactly the
question behind the remaining concurrency bug classes.  This module
builds a lightweight whole-tree call graph (functions matched by
simple name, the same precision budget the rest of the lint engine
runs on), seeds **thread roles** at the known entry points, propagates
them caller→callee, and then runs interprocedural rules over every
function with each role:

* ``worker`` — builder worker bodies: the nested ``worker`` in
  :func:`repro.parallel.threads.build_parallel_threads`, anything
  passed as ``Thread(target=...)``, and worker-named functions.
* ``rank`` — per-rank cluster programs (``cluster_rank_program`` and
  ``rank_*`` / ``*_rank_program`` shaped names).
* ``sim`` — deterministically replayed code: everything in
  ``repro.sim`` plus ``simulate*`` / ``sim_*`` named functions.
* ``serve`` — request-path code: handler/dispatch/serve-named
  functions (seeded in ``repro.service`` and matching names anywhere).

Rule catalog (DESIGN.md §14; all support ``# lint-ok`` pragmas and the
checked-in suppression file exactly like PC001–PC006):

* **PC007** — worker/rank code mutating a shared store
  (``add`` / ``add_delta`` / ``merge_from`` / ``receive_labels``)
  without a hooks-managed lock held.  Stores constructed locally in
  the same function are rank-private and exempt.
* **PC008** — writes into the finalized (frozen / mmap-backed) CSR
  label arrays: subscript stores, augmented assigns or mutating
  method calls on the results of ``finalized_hubs()`` /
  ``finalized_dists()`` / ``finalized_arrays()``.
* **PC009** — blocking calls reachable from serve-role code without a
  timeout: ``create_connection`` / ``urlopen`` without ``timeout=``,
  untimed queue ``get`` / ``join``, argument-less ``wait()`` on
  event-ish objects, ``input()``.
* **PC010** — iteration over set-typed expressions in sim-role code
  (set displays, ``set()`` / ``frozenset()`` constructors, set
  comprehensions, or locals bound to them): Python set order varies
  per process, which breaks replay determinism.  Wrap in
  ``sorted(...)``.
* **PC011** — ``threading.Lock()`` / ``RLock()`` / ``Condition()``
  created directly in the concurrency layers (``repro.parallel`` /
  ``repro.cluster`` / ``repro.service``): locks there must come from
  ``repro.check.hooks.make_lock`` so the race sanitizer and the
  deadlock recorder can see them.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.lint import (
    FileContext,
    Suppression,
    Violation,
    _inline_pragmas,
    iter_python_files,
)

__all__ = [
    "FunctionInfo",
    "CallGraph",
    "DataflowReport",
    "analyze_paths",
    "ROLES",
]

ROLES = ("worker", "rank", "sim", "serve")

#: Store-mutating calls (mirrors PC002's view of the commit surface).
_STORE_MUTATORS = {"add_delta", "merge_from", "receive_labels"}
_WEAK_MUTATORS = {"add"}

#: LabelStore finalized-view accessors whose results are frozen.
_FINALIZED_ACCESSORS = {
    "finalized_hubs", "finalized_dists", "finalized_arrays",
}

#: In-place methods that mutate an array/sequence result.
_MUTATING_METHODS = {
    "fill", "sort", "itemset", "resize", "put", "partition", "append",
    "extend", "clear",
}

#: Receiver names that look like blocking queues/mailboxes (PC009).
_QUEUEISH = ("queue", "box", "inbox", "mailbox")
_WAITISH = ("event", "cond", "barrier", "done", "ready", "stop")


def _is_lockish(text: str) -> bool:
    return "lock" in text.lower()


@dataclass
class FunctionInfo:
    """One function (or method) in the call graph."""

    qualname: str
    simple: str
    module: str
    path: str
    node: Any  # ast.FunctionDef | ast.AsyncFunctionDef
    calls: Set[str] = field(default_factory=set)
    roles: Set[str] = field(default_factory=set)


class CallGraph:
    """Simple-name-matched call graph over a set of files, with roles."""

    def __init__(self) -> None:
        self.functions: List[FunctionInfo] = []
        self.by_simple: Dict[str, List[FunctionInfo]] = {}
        self.contexts: List[FileContext] = []
        #: Function simple names seen as ``Thread(target=...)``.
        self.thread_targets: Set[str] = set()

    # -- construction --------------------------------------------------
    def add_file(self, ctx: FileContext) -> None:
        self.contexts.append(ctx)
        self._collect(ctx, ctx.tree, prefix=ctx.module or ctx.path)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _call_simple_name(node)
                if name == "Thread":
                    for kw in node.keywords:
                        if kw.arg == "target":
                            target = _name_of(kw.value)
                            if target:
                                self.thread_targets.add(target)

    def _collect(self, ctx: FileContext, tree: ast.AST, prefix: str) -> None:
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{prefix}.{node.name}",
                    simple=node.name,
                    module=ctx.module,
                    path=ctx.path,
                    node=node,
                )
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        name = _call_simple_name(sub)
                        if name:
                            info.calls.add(name)
                        for arg in list(sub.args) + [
                            kw.value for kw in sub.keywords
                        ]:
                            passed = _name_of(arg)
                            if passed:
                                info.calls.add(passed)
                self.functions.append(info)
                self.by_simple.setdefault(node.name, []).append(info)
                self._collect(ctx, node, prefix=f"{prefix}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                self._collect(ctx, node, prefix=f"{prefix}.{node.name}")

    # -- role inference ------------------------------------------------
    def infer_roles(self) -> None:
        """Seed roles at known entry points, then propagate to callees."""
        for fn in self.functions:
            for role in self._seed_roles(fn):
                fn.roles.add(role)
        queue = deque(fn for fn in self.functions if fn.roles)
        while queue:
            fn = queue.popleft()
            for callee_name in fn.calls:
                for callee in self.by_simple.get(callee_name, ()):
                    missing = fn.roles - callee.roles
                    if missing:
                        callee.roles |= missing
                        queue.append(callee)

    def _seed_roles(self, fn: FunctionInfo) -> Set[str]:
        roles: Set[str] = set()
        name = fn.simple.lower()
        if "worker" in name or fn.simple in self.thread_targets:
            roles.add("worker")
        if (
            fn.simple == "cluster_rank_program"
            or name.startswith("rank_")
            or name.endswith("_rank_program")
        ):
            roles.add("rank")
        if (
            fn.module.startswith("repro.sim")
            or name.startswith("simulate")
            or name.startswith("sim_")
            or fn.simple == "run_roots"
        ):
            roles.add("sim")
        if (
            name == "handle"
            or name.startswith("_dispatch")
            or name.startswith("dispatch")
            or name.startswith("handle_")
            or name.startswith("serve")
        ):
            roles.add("serve")
        return roles


def _call_simple_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _name_of(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ----------------------------------------------------------------------
# Per-function rule checks
# ----------------------------------------------------------------------
def _local_store_names(fn_node: ast.AST) -> Set[str]:
    """Locals bound to a freshly constructed (rank-private) store."""
    out: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Call
        ):
            callee = _call_simple_name(node.value)
            if callee in ("LabelStore", "wrap_store"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
    return out


def _under_lock(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether *node* sits inside any lockish ``with`` block."""
    cur: Optional[ast.AST] = node
    while cur is not None:
        if isinstance(cur, (ast.With, ast.AsyncWith)):
            for item in cur.items:
                try:
                    text = ast.unparse(item.context_expr)
                except (ValueError, AttributeError):  # pragma: no cover
                    continue
                if _is_lockish(text):
                    return True
        cur = parents.get(cur)
    return False


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _violation(
    ctx: FileContext, node: ast.AST, rule: str, message: str, hint: str
) -> Violation:
    return Violation(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=rule,
        message=message,
        hint=hint,
    )


def _check_pc007(ctx: FileContext, fn: FunctionInfo) -> Iterator[Violation]:
    """Worker/rank shared-store mutation without a hooks-managed lock."""
    if not ({"worker", "rank"} & fn.roles) or "sim" in fn.roles:
        return
    local_stores = _local_store_names(fn.node)
    parents = _parent_map(fn.node)
    for node in ast.walk(fn.node):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        ):
            continue
        attr = node.func.attr
        recv = ctx.text(node.func.value)
        recv_root = recv.split(".", 1)[0].split("[", 1)[0]
        storeish = "store" in recv.lower()
        if not (
            attr in _STORE_MUTATORS
            or (attr in _WEAK_MUTATORS and storeish)
        ):
            continue
        if recv_root in local_stores:
            continue
        if _under_lock(node, parents):
            continue
        role = "worker" if "worker" in fn.roles else "rank"
        yield _violation(
            ctx, node, "PC007",
            f"{role}-role function {fn.simple}() mutates shared store "
            f"via {recv}.{attr}(...) with no hooks-managed lock held",
            "wrap the commit in `with <hooks.make_lock(...)>:` or make "
            "the store function-local (rank-private stores are exempt)",
        )


def _check_pc008(ctx: FileContext, fn: FunctionInfo) -> Iterator[Violation]:
    """Writes into finalized (frozen/mmap) CSR label arrays."""
    frozen: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            value = node.value
            names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if isinstance(value, ast.Call) and _call_simple_name(
                value
            ) in _FINALIZED_ACCESSORS:
                frozen.update(names)
                # indptr, hubs, dists = store.finalized_arrays()
                for target in node.targets:
                    if isinstance(target, (ast.Tuple, ast.List)):
                        frozen.update(
                            e.id for e in target.elts
                            if isinstance(e, ast.Name)
                        )

    def is_frozen_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in frozen
        if isinstance(expr, ast.Call):
            return _call_simple_name(expr) in _FINALIZED_ACCESSORS
        if isinstance(expr, ast.Subscript):
            return is_frozen_expr(expr.value)
        return False

    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and is_frozen_expr(
                    target.value
                ):
                    yield _violation(
                        ctx, node, "PC008",
                        f"write into frozen label array "
                        f"`{ctx.text(target)}` — finalized CSR views "
                        "are read-only (and mmap-backed stores would "
                        "fault or corrupt the file)",
                        "copy first (`arr = arr.copy()`) or go through "
                        "LabelStore mutation APIs before finalize()",
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and is_frozen_expr(node.func.value)
        ):
            yield _violation(
                ctx, node, "PC008",
                f"in-place `{node.func.attr}()` on frozen label array "
                f"`{ctx.text(node.func.value)}`",
                "copy the array before mutating it",
            )


def _check_pc009(ctx: FileContext, fn: FunctionInfo) -> Iterator[Violation]:
    """Blocking calls reachable from serve-role code without timeouts."""
    if "serve" not in fn.roles:
        return
    settimeout_recvs: Set[str] = set()
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "settimeout"
        ):
            settimeout_recvs.add(ctx.text(node.func.value))
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        kwargs = {kw.arg for kw in node.keywords}
        func = node.func
        simple = _call_simple_name(node)
        if simple in ("create_connection", "urlopen"):
            timed = "timeout" in kwargs or len(node.args) >= 2
            if not timed:
                yield _violation(
                    ctx, node, "PC009",
                    f"serve-path call {ctx.text(func)}(...) has no "
                    "timeout — one stuck peer wedges the request thread",
                    "pass timeout= (the serve path must always bound "
                    "its blocking calls)",
                )
            continue
        if simple == "input":
            yield _violation(
                ctx, node, "PC009",
                "serve-path input() blocks on a terminal forever",
                "serve-role code must not read stdin",
            )
            continue
        if not isinstance(func, ast.Attribute):
            continue
        recv = ctx.text(func.value)
        recv_l = recv.lower()
        if func.attr in ("get", "join") and any(
            q in recv_l for q in _QUEUEISH
        ):
            if "timeout" not in kwargs and not node.args:
                yield _violation(
                    ctx, node, "PC009",
                    f"untimed {recv}.{func.attr}() on the serve path "
                    "blocks indefinitely when the producer dies",
                    "pass a timeout and convert Empty into a 503-style "
                    "error response",
                )
        elif func.attr == "wait" and not node.args and (
            "timeout" not in kwargs
        ) and any(w in recv_l for w in _WAITISH):
            yield _violation(
                ctx, node, "PC009",
                f"untimed {recv}.wait() on the serve path",
                "pass wait(timeout=...) and handle the False return",
            )
        elif func.attr in ("accept", "connect") and "sock" in recv_l:
            if recv not in settimeout_recvs:
                yield _violation(
                    ctx, node, "PC009",
                    f"{recv}.{func.attr}() without a prior "
                    f"{recv}.settimeout(...) in {fn.simple}()",
                    "call settimeout() on the socket before blocking "
                    "operations on the serve path",
                )


#: Set-producing call names (PC010).
_SET_CALLS = {"set", "frozenset"}


def _is_set_expr(node: ast.expr, set_locals: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_simple_name(node) in _SET_CALLS
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_locals) or _is_set_expr(
            node.right, set_locals
        )
    return False


def _check_pc010(ctx: FileContext, fn: FunctionInfo) -> Iterator[Violation]:
    """Nondeterministic set iteration in sim-replayed code."""
    if "sim" not in fn.roles:
        return
    set_locals: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and _is_set_expr(
            node.value, set()
        ):
            set_locals.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
    for node in ast.walk(fn.node):
        iters: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it, set_locals):
                yield _violation(
                    ctx, node, "PC010",
                    f"sim-role function {fn.simple}() iterates over a "
                    f"set (`{ctx.text(it)}`): set order varies per "
                    "process, so replayed runs diverge",
                    "iterate `sorted(<set>)` (or switch to a list/"
                    "dict, which preserve insertion order)",
                )


#: Modules whose locks must come from hooks.make_lock (PC011).
_PC011_PREFIXES = ("repro.parallel", "repro.cluster", "repro.service")
_LOCK_CTORS = {"Lock", "RLock", "Condition"}


def _check_pc011(ctx: FileContext) -> Iterator[Violation]:
    """Untracked lock construction in the concurrency layers.

    File-scoped rather than function-scoped: module-level locks are the
    most common offenders.  Applies to the concurrency-layer modules
    and to unanchored files (corpus snippets).
    """
    module = ctx.module
    if module and not any(
        module == p or module.startswith(p + ".") for p in _PC011_PREFIXES
    ):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ) and func.value.id == "threading":
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name in _LOCK_CTORS:
            yield _violation(
                ctx, node, "PC011",
                f"direct threading.{name}() in a concurrency layer — "
                "the race sanitizer and the deadlock recorder cannot see "
                "this lock",
                "create it via repro.check.hooks.make_lock(\"<name>\") "
                "(a plain Lock when no sanitizer is installed)",
            )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class DataflowReport:
    """Everything one dataflow-lint run produced."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    functions: int = 0
    roles: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def analyze_paths(
    paths: Sequence[str],
    suppressions: Optional[Sequence[Suppression]] = None,
) -> DataflowReport:
    """Run the role-inference dataflow lints (PC007–PC011).

    Builds the call graph over every file first (roles propagate across
    files), then checks each function with its inferred roles.  Inline
    ``# lint-ok`` pragmas and suppression entries apply as in
    :func:`repro.check.lint.lint_paths`.
    """
    suppressions = list(suppressions or ())
    graph = CallGraph()
    report = DataflowReport()
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        try:
            ctx = FileContext(path, source)
        except SyntaxError as exc:
            report.violations.append(
                Violation(
                    path=path.replace(os.sep, "/"),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule="PC000",
                    message=f"file does not parse: {exc.msg}",
                    hint="fix the syntax error",
                )
            )
            continue
        graph.add_file(ctx)
        report.files_checked += 1
    graph.infer_roles()
    report.functions = len(graph.functions)
    for role in ROLES:
        report.roles[role] = sum(
            1 for fn in graph.functions if role in fn.roles
        )

    found: List[Violation] = []
    by_path: Dict[str, List[FunctionInfo]] = {}
    for fn in graph.functions:
        by_path.setdefault(fn.path, []).append(fn)
    for ctx in graph.contexts:
        file_hits: List[Violation] = []
        for fn in by_path.get(ctx.path, ()):
            file_hits.extend(_check_pc007(ctx, fn))
            file_hits.extend(_check_pc008(ctx, fn))
            file_hits.extend(_check_pc009(ctx, fn))
            file_hits.extend(_check_pc010(ctx, fn))
        file_hits.extend(_check_pc011(ctx))
        pragmas = _inline_pragmas(ctx.lines)
        for violation in file_hits:
            ids = pragmas.get(violation.line, ())
            if ids is None or (ids and violation.rule in ids):
                report.suppressed.append(violation)
                continue
            found.append(violation)

    for violation in found:
        for supp in suppressions:
            if supp.matches(violation):
                report.suppressed.append(violation)
                break
        else:
            report.violations.append(violation)
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return report
