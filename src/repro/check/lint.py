"""The project lint engine: AST rules that guard ParaPLL's invariants.

The correctness argument of the paper (Proposition 1) and of this
reproduction rests on a handful of properties that ordinary tests do
not exercise — commits happen under the single lock, simulated paths
stay deterministic, float distances are never compared with raw ``==``.
Each property is encoded here as a :class:`Rule` over the parsed AST;
the engine runs every registered rule over every file, applies inline
pragmas and the checked-in suppression file, and renders the surviving
violations as human text, JSON, or GitHub workflow annotations.

Rule catalogue (see DESIGN.md §9 for the rationale of each):

* **PC001 determinism** — no wall-clock or unseeded randomness inside
  ``repro.sim`` / ``repro.core``: ``time.time()``, ``datetime.now()``,
  module-level ``random.*``, legacy ``np.random.*`` and *unseeded*
  ``np.random.default_rng()`` / ``random.Random()`` are all banned.
* **PC002 lock discipline** — inside ``repro.parallel`` /
  ``repro.cluster``, mutations of shared label/task state (every
  ``LabelStore.MUTATORS`` method, ``receive_labels``, ``store.add``,
  writes to ``self._next``) must happen while a lock is held.  Lock
  possession is tracked by a lightweight intra-function dataflow over
  ``with <lock>:`` blocks and ``.acquire()`` / ``.release()`` pairs.
* **PC003 float-distance equality** — no ``==`` / ``!=`` between
  distance-valued expressions outside the sanctioned helpers in
  :mod:`repro.core.paths`; comparisons against the ``INF`` sentinel and
  the ``x != x`` NaN idiom are exempt.
* **PC004 exception hygiene** — no bare ``except:`` anywhere; a broad
  ``except Exception`` / ``except BaseException`` handler must either
  re-raise or actually use the caught exception (record it), so worker
  loops can never silently swallow failures.
* **PC005 import layering** — module-level imports must respect the
  layer diagram: ``repro.core`` / ``repro.graph`` / ``repro.pq`` may
  reach :mod:`repro.obs` only via the sanctioned facades
  (``buildmon`` / ``bus`` / ``config`` / ``flightrec`` /
  ``instruments`` / ``trace`` / ``timers``), low layers
  never import high layers, and runtime code may import from
  ``repro.check`` only the dependency-free :mod:`repro.check.hooks`.
* **PC006 label internals** — the flat CSR finalized representation
  (``_finalized_indptr`` / ``_finalized_hubs`` / ``_finalized_dists``)
  is private to :mod:`repro.core.labels`; every other module reads
  labels through ``finalized_hubs()`` / ``finalized_dists()`` /
  ``finalized_arrays()``.

(PC007–PC011, the interprocedural thread-role rules, live in
:mod:`repro.check.dataflow` — they need the cross-file call graph.)

Suppression happens at two levels: an inline ``# lint-ok: PC002``
pragma on the flagged line, and the checked-in suppression file
(default ``.parapll-lint.json``) whose entries carry a written reason.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.labels import LabelStore
from repro.errors import CheckError

__all__ = [
    "Violation",
    "LintReport",
    "Suppression",
    "Rule",
    "all_rules",
    "lint_paths",
    "load_suppressions",
    "iter_python_files",
    "format_text",
    "format_json",
    "format_github",
    "DEFAULT_SUPPRESSION_FILE",
    "RULES_VERSION",
]

#: Bumped whenever rule behaviour changes, to invalidate result caches.
RULES_VERSION = "parapll-lint/3"

#: Default checked-in suppression file, relative to the repo root.
DEFAULT_SUPPRESSION_FILE = ".parapll-lint.json"

#: Inline pragma marker: ``# lint-ok`` or ``# lint-ok: PC001, PC004``.
_PRAGMA = "lint-ok"


@dataclass(frozen=True)
class Violation:
    """One rule hit, pinned to a source location.

    Attributes:
        path: file path as given to the engine (posix separators).
        line: 1-based line of the offending node.
        col: 0-based column.
        rule: rule id (``PC001`` ...).
        message: what is wrong, concretely.
        hint: how to fix it.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Violation":
        return cls(
            path=str(d["path"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            col=int(d["col"]),  # type: ignore[arg-type]
            rule=str(d["rule"]),
            message=str(d["message"]),
            hint=str(d["hint"]),
        )


@dataclass(frozen=True)
class Suppression:
    """One accepted-exception entry of the suppression file."""

    rule: str
    path: str
    reason: str
    line: Optional[int] = None

    def matches(self, v: Violation) -> bool:
        if self.rule != v.rule:
            return False
        if self.line is not None and self.line != v.line:
            return False
        vp = v.path.replace(os.sep, "/")
        sp = self.path.replace(os.sep, "/")
        return vp == sp or vp.endswith("/" + sp)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    files_from_cache: int = 0
    unused_suppressions: List[Suppression] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no unsuppressed violations remain."""
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


# ----------------------------------------------------------------------
# File context and rule base
# ----------------------------------------------------------------------
class FileContext:
    """One parsed file handed to every rule: path, module, AST, lines."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.module = _module_name(self.path)

    def text(self, node: ast.AST) -> str:
        """Source text of *node* (best effort)."""
        try:
            return ast.unparse(node)
        except (ValueError, AttributeError):  # pragma: no cover
            return "<expr>"


def _module_name(path: str) -> str:
    """Dotted module name for *path*, anchored at the ``repro`` package.

    Files outside a ``repro`` package tree (synthetic test snippets) get
    module name ``""`` and are only covered by unscoped rules.
    """
    parts = path.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return ""
    parts = parts[parts.index("repro"):]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Rule:
    """Base class: subclasses define ``id``/``title``/``hint`` and
    yield :class:`Violation` objects from :meth:`check`."""

    id: str = "PC000"
    title: str = ""
    hint: str = ""
    #: Module prefixes this rule applies to; empty = every file.
    scope: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if not self.scope:
            return True
        return any(
            module == p or module.startswith(p + ".") for p in self.scope
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str,
        hint: Optional[str] = None,
    ) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            hint=hint if hint is not None else self.hint,
        )


# ----------------------------------------------------------------------
# PC001 — determinism in simulated/core paths
# ----------------------------------------------------------------------
#: ``module attr`` call patterns that read the wall clock.
_WALLCLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Module-level ``random.*`` functions (all draw from the global RNG).
_GLOBAL_RANDOM = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "seed", "betavariate",
    "expovariate", "random_sample",
}


class DeterminismRule(Rule):
    """PC001: no wall clock / unseeded randomness in sim & core paths."""

    id = "PC001"
    title = "determinism"
    hint = (
        "simulated and core paths must be replayable: take timestamps "
        "from the event loop and randomness from a seeded "
        "np.random.default_rng(seed) / random.Random(seed)"
    )
    scope = ("repro.sim", "repro.core")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                base = func.value
                # time.time(), datetime.now(), datetime.datetime.now()...
                base_name = (
                    base.id if isinstance(base, ast.Name)
                    else base.attr if isinstance(base, ast.Attribute)
                    else None
                )
                if (base_name, func.attr) in _WALLCLOCK:
                    yield self.violation(
                        ctx, node,
                        f"wall-clock call {ctx.text(node.func)}() in a "
                        "deterministic path",
                    )
                    continue
                # np.random.<legacy fn>() pulls from the global RNG.
                if (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("np", "numpy")
                    and func.attr not in ("default_rng", "Generator")
                ):
                    yield self.violation(
                        ctx, node,
                        f"global numpy RNG call {ctx.text(node.func)}()",
                    )
                    continue
                # random.random() and friends on the module-global RNG.
                if (
                    isinstance(base, ast.Name)
                    and base.id == "random"
                    and func.attr in _GLOBAL_RANDOM
                ):
                    yield self.violation(
                        ctx, node,
                        f"global random module call random.{func.attr}()",
                    )
                    continue
                # Unseeded np.random.default_rng() / random.Random().
                if func.attr in ("default_rng", "Random") and not (
                    node.args or node.keywords
                ):
                    yield self.violation(
                        ctx, node,
                        f"unseeded RNG constructor "
                        f"{ctx.text(node.func)}()",
                    )
            elif isinstance(func, ast.Name):
                if func.id in ("default_rng", "Random") and not (
                    node.args or node.keywords
                ):
                    yield self.violation(
                        ctx, node,
                        f"unseeded RNG constructor {func.id}()",
                    )


# ----------------------------------------------------------------------
# PC002 — lock discipline around shared mutable state
# ----------------------------------------------------------------------
#: Methods that mutate only when called on a store-like receiver.
_WEAK_MUTATORS = {"add"}
#: Methods that mutate a shared label/task structure, on any receiver:
#: every label-store mutator (the list the race detector's store proxy
#: also tracks) plus the simulated node's ``receive_labels``.
_STRONG_MUTATORS = (set(LabelStore.MUTATORS) - _WEAK_MUTATORS) | {
    "receive_labels"
}
#: Attribute writes on ``self`` that touch shared queue state.
_SHARED_ATTRS = {"_next"}


def _is_lockish(text: str) -> bool:
    return "lock" in text.lower()


class LockDisciplineRule(Rule):
    """PC002: shared-state mutation must happen while a lock is held.

    The dataflow is intra-function and linear: a ``with <lock>:`` block
    adds its lock for the duration of the block, ``x.acquire()`` adds
    ``x`` for the following statements and ``x.release()`` removes it
    (a release inside ``finally`` is seen after the ``try`` body, which
    matches the runtime order for the non-raising path the rule
    models).  Anything whose source text contains ``lock`` counts as a
    lock object — the point is discipline around the *named* locks of
    this codebase, not alias analysis.
    """

    id = "PC002"
    title = "lock-discipline"
    hint = (
        "wrap the mutation in `with <lock>:` (Algorithm 2's critical "
        "section) or move it off the shared object; rank-private "
        "stores belong in the suppression file with a reason"
    )
    scope = ("repro.parallel", "repro.cluster")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        # Walk every function body (and the module body) separately so
        # the held-lock set never leaks across scopes.  Nested defs are
        # collected and walked on their own.
        bodies: List[List[ast.stmt]] = [ctx.tree.body]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in ("__init__", "__new__"):
                    # Constructors run before the object is published to
                    # other threads; their writes cannot race.
                    continue
                bodies.append(node.body)
        for body in bodies:
            yield from self._walk(ctx, body, set())

    # -- dataflow ------------------------------------------------------
    def _walk(
        self, ctx: FileContext, stmts: Sequence[ast.stmt], held: Set[str]
    ) -> Iterator[Violation]:
        held = set(held)
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # walked as its own scope
            if isinstance(stmt, ast.ClassDef):
                yield from self._walk(ctx, stmt.body, held)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = set(held)
                for item in stmt.items:
                    text = ctx.text(item.context_expr)
                    if _is_lockish(text):
                        inner.add(_lock_key(text))
                yield from self._walk(ctx, stmt.body, inner)
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ):
                call = stmt.value
                if isinstance(call.func, ast.Attribute):
                    recv = ctx.text(call.func.value)
                    if call.func.attr == "acquire" and _is_lockish(recv):
                        held.add(_lock_key(recv))
                        continue
                    if call.func.attr == "release" and _is_lockish(recv):
                        held.discard(_lock_key(recv))
                        continue
            if isinstance(
                stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)
            ):
                yield from self._scan_exprs(ctx, _header_exprs(stmt), held)
                yield from self._walk(ctx, stmt.body, held)
                yield from self._walk(ctx, stmt.orelse, held)
                continue
            if isinstance(stmt, ast.Try):
                yield from self._walk(ctx, stmt.body, held)
                for handler in stmt.handlers:
                    yield from self._walk(ctx, handler.body, held)
                yield from self._walk(ctx, stmt.orelse, held)
                yield from self._walk(ctx, stmt.finalbody, held)
                continue
            yield from self._scan_stmt(ctx, stmt, held)

    def _scan_stmt(
        self, ctx: FileContext, stmt: ast.stmt, held: Set[str]
    ) -> Iterator[Violation]:
        if held:
            return
        for node in ast.walk(stmt):
            yield from self._check_node(ctx, node)

    def _scan_exprs(
        self, ctx: FileContext, exprs: Iterable[ast.expr], held: Set[str]
    ) -> Iterator[Violation]:
        if held:
            return
        for expr in exprs:
            for node in ast.walk(expr):
                yield from self._check_node(ctx, node)

    def _check_node(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            attr = node.func.attr
            recv = ctx.text(node.func.value)
            if attr in _STRONG_MUTATORS or (
                attr in _WEAK_MUTATORS and "store" in recv.lower()
            ):
                yield self.violation(
                    ctx, node,
                    f"shared-state mutation {recv}.{attr}(...) with no "
                    "lock held",
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _SHARED_ATTRS
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield self.violation(
                        ctx, node,
                        f"write to shared attribute self.{target.attr} "
                        "with no lock held",
                    )


def _lock_key(text: str) -> str:
    """Normalise a lock expression to a comparable key."""
    return text.replace(" ", "")


def _header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    return []


# ----------------------------------------------------------------------
# PC003 — float-distance equality
# ----------------------------------------------------------------------
#: Names that (in this codebase) always hold a float distance.
_DIST_NAMES = {
    "got", "want", "rem", "remaining", "best_rem", "dist", "distance",
    "nd", "new_dist", "total_dist", "d_uv", "d_sv", "d_vt",
}
#: ``x.distance`` attribute reads and ``obj.distance(...)`` calls.
_DIST_CALLS = {"distance", "query_distance", "dijkstra_sssp"}


def _is_inf_like(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id in ("INF", "inf", "INFINITY"):
        return True
    if isinstance(node, ast.Attribute) and node.attr in ("inf", "infinity"):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).lstrip("+-") in ("inf", "Infinity")
    ):
        return True
    return False


def _is_distance_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _DIST_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _DIST_NAMES
    if isinstance(node, ast.Subscript):
        value = node.value
        name = (
            value.id if isinstance(value, ast.Name)
            else value.attr if isinstance(value, ast.Attribute)
            else ""
        )
        return name in ("dist", "dists", "distances", "truth")
    return False


def _is_distance_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = (
        func.attr if isinstance(func, ast.Attribute)
        else func.id if isinstance(func, ast.Name)
        else ""
    )
    return name in _DIST_CALLS


class FloatEqualityRule(Rule):
    """PC003: raw ``==``/``!=`` between float distances is banned.

    The sanctioned comparison lives in :mod:`repro.core.paths`
    (``math.isclose`` with an absolute tolerance); everything else must
    call it.  Exempt: comparisons against the exact ``INF`` sentinel
    (unreachable marker, bitwise-exact by construction) and the
    ``x != x`` NaN idiom.
    """

    id = "PC003"
    title = "float-distance-equality"
    hint = (
        "use repro.core.paths.isclose_distance(a, b) (or compare "
        "against the INF sentinel explicitly)"
    )

    def applies_to(self, module: str) -> bool:
        # The sanctioned helper itself is the one place raw comparison
        # tolerance logic may live.
        return module != "repro.core.paths"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if len(node.ops) != 1 or not isinstance(
                node.ops[0], (ast.Eq, ast.NotEq)
            ):
                continue
            left, right = node.left, node.comparators[0]
            if _is_inf_like(left) or _is_inf_like(right):
                continue
            if ast.dump(left) == ast.dump(right):
                continue  # x != x — the sanctioned NaN check
            dist_like = _is_distance_expr(left) + _is_distance_expr(right)
            call_like = _is_distance_call(left) or _is_distance_call(right)
            if call_like or dist_like == 2:
                op = "==" if isinstance(node.ops[0], ast.Eq) else "!="
                yield self.violation(
                    ctx, node,
                    f"raw float comparison "
                    f"`{ctx.text(left)} {op} {ctx.text(right)}` "
                    "on distance values",
                )


# ----------------------------------------------------------------------
# PC004 — exception hygiene
# ----------------------------------------------------------------------
class ExceptionHygieneRule(Rule):
    """PC004: no bare ``except:``; broad handlers must record or re-raise.

    A handler for ``Exception`` / ``BaseException`` that neither
    re-raises nor references the caught exception object silently
    swallows worker failures — exactly the bug class that turns a
    crashed builder thread into a half-built index.
    """

    id = "PC004"
    title = "exception-hygiene"
    hint = (
        "catch a specific exception, or bind it (`except Exception as "
        "exc`) and record/propagate it (append to an errors list, "
        "wrap, or re-raise)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx, node, "bare `except:` swallows everything "
                    "(including KeyboardInterrupt)",
                )
                continue
            names = self._type_names(node.type)
            if not names & {"Exception", "BaseException"}:
                continue
            if node.name is None:
                if not self._reraises(node):
                    yield self.violation(
                        ctx, node,
                        f"broad `except {' | '.join(sorted(names))}:` "
                        "discards the exception without recording it",
                    )
                continue
            if not self._reraises(node) and not self._uses_name(
                node, node.name
            ):
                yield self.violation(
                    ctx, node,
                    f"broad handler binds `{node.name}` but never uses "
                    "or re-raises it",
                )

    @staticmethod
    def _type_names(node: ast.expr) -> Set[str]:
        names: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        return names

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(sub, ast.Raise) for sub in ast.walk(handler)
        )

    @staticmethod
    def _uses_name(handler: ast.ExceptHandler, name: str) -> bool:
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Name) and sub.id == name and isinstance(
                sub.ctx, ast.Load
            ):
                return True
        return False


# ----------------------------------------------------------------------
# PC005 — import layering
# ----------------------------------------------------------------------
#: Sanctioned low-overhead observability facades importable from below.
_OBS_FACADES = {
    "repro.obs.buildmon",
    "repro.obs.config",
    "repro.obs.flightrec",
    "repro.obs.instruments",
    "repro.obs.trace",
    "repro.obs.timers",
}

#: The one check module runtime code may import (no-op hook points).
_CHECK_FACADE = "repro.check.hooks"

#: Layer groups, low to high.  A module in a group may import its own
#: group, anything lower, plus the sanctioned facades.
_LAYER_GROUPS: List[Tuple[str, ...]] = [
    ("repro.errors", "repro.types"),
    ("repro.pq",),
    ("repro.graph",),
    ("repro.generators", "repro.io"),
    ("repro.core", "repro.digraph", "repro.baselines"),
    ("repro.parallel", "repro.sim"),
    ("repro.cluster", "repro.service", "repro.obs",
     "repro.efficiency", "repro.validate"),
    ("repro.check",),
    ("repro.bench", "repro.cli"),
]


def _layer_of(module: str) -> Optional[int]:
    for i, group in enumerate(_LAYER_GROUPS):
        for prefix in group:
            if module == prefix or module.startswith(prefix + "."):
                return i
    return None


class ImportLayeringRule(Rule):
    """PC005: module-level imports must not reach up the layer stack.

    ``repro.obs`` is special-cased: any layer may import the cheap
    facades (metrics counters, span tracing, phase timers, the build
    monitor's report hooks, the config flags) — that is the whole point
    of the facade split — but the
    heavy analysis modules (``perf``, ``regression``, ``timeline``,
    ``export``, ``env``) are importable only from the top layers, and
    only :mod:`repro.check.hooks` is importable from runtime code.
    Function-level (lazy) imports are exempt: they express an optional,
    runtime-chosen dependency, which is the sanctioned escape hatch.
    """

    id = "PC005"
    title = "import-layering"
    hint = (
        "move the import into the function that needs it (lazy), or "
        "route through the sanctioned facade modules"
    )
    scope = ("repro",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        src_layer = _layer_of(ctx.module)
        if src_layer is None:
            return
        for node in ctx.tree.body:
            yield from self._check_import(ctx, node, src_layer)

    def _check_import(
        self, ctx: FileContext, node: ast.stmt, src_layer: int
    ) -> Iterator[Violation]:
        targets: List[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module:
                # ``from repro.obs import config`` names the submodule
                # ``repro.obs.config``; resolve each alias so sanctioned
                # facades are recognised in either spelling.
                for alias in node.names:
                    candidate = f"{node.module}.{alias.name}"
                    if candidate in _OBS_FACADES or candidate == _CHECK_FACADE:
                        continue
                    targets.append(node.module)
        for target in targets:
            if not target.startswith("repro"):
                continue
            if target in _OBS_FACADES or target == _CHECK_FACADE:
                continue
            tgt_layer = _layer_of(target)
            if tgt_layer is None:
                continue
            if tgt_layer > src_layer:
                yield self.violation(
                    ctx, node,
                    f"{ctx.module} (layer {src_layer}) imports "
                    f"{target} (layer {tgt_layer}) at module level",
                )


# ----------------------------------------------------------------------
# PC006 — flat CSR label internals are private to labels.py
# ----------------------------------------------------------------------
#: The finalized-representation slots of LabelStore.  Everything else
#: must go through the public accessors, so the layout can keep
#: evolving (and so frozen/mmap stores keep working) without a
#: repo-wide audit.
_LABEL_INTERNALS = {
    "_finalized_indptr",
    "_finalized_hubs",
    "_finalized_dists",
}

#: The one module that owns the finalized representation.
_LABELS_MODULE = "repro.core.labels"


class LabelInternalsRule(Rule):
    """PC006: no direct access to LabelStore's finalized internals.

    The flat CSR triple behind ``_finalized_indptr`` /
    ``_finalized_hubs`` / ``_finalized_dists`` is an implementation
    detail of :mod:`repro.core.labels`.  Readers use
    ``finalized_hubs(v)`` / ``finalized_dists(v)`` (zero-copy slices)
    or ``finalized_arrays()`` (the whole triple); reaching into the
    slots from outside couples callers to the layout and breaks on
    frozen/memory-mapped stores.
    """

    id = "PC006"
    title = "label-internals"
    hint = (
        "use LabelStore.finalized_hubs()/finalized_dists() for "
        "per-vertex slices or finalized_arrays() for the flat CSR "
        "triple; the _finalized_* slots belong to repro.core.labels"
    )
    scope = ("repro",)

    def applies_to(self, module: str) -> bool:
        if module == _LABELS_MODULE:
            return False
        return super().applies_to(module)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _LABEL_INTERNALS
            ):
                yield self.violation(
                    ctx, node,
                    f"direct access to LabelStore.{node.attr} outside "
                    f"{_LABELS_MODULE}",
                )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_RULES: List[Rule] = [
    DeterminismRule(),
    LockDisciplineRule(),
    FloatEqualityRule(),
    ExceptionHygieneRule(),
    ImportLayeringRule(),
    LabelInternalsRule(),
]


def all_rules() -> List[Rule]:
    """The registered rule instances, in id order."""
    return sorted(_RULES, key=lambda r: r.id)


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id.

    Raises:
        CheckError: for unknown rule ids.
    """
    for rule in _RULES:
        if rule.id == rule_id:
            return rule
    raise CheckError(
        f"unknown lint rule {rule_id!r} "
        f"(known: {', '.join(r.id for r in all_rules())})"
    )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [
                    d for d in dirnames
                    if d not in ("__pycache__", ".git", ".venv")
                ]
                for name in filenames:
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            out.append(path)
    return sorted(set(out))


def _inline_pragmas(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line -> suppressed rule ids (``None`` = all rules)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for i, line in enumerate(lines, start=1):
        if _PRAGMA not in line or "#" not in line:
            continue
        comment = line[line.index("#"):]
        if _PRAGMA not in comment:
            continue
        after = comment.split(_PRAGMA, 1)[1]
        ids: Set[str] = set()
        for token in after.lstrip(": ").split(","):
            # Only the leading word is the rule id; anything after it
            # (``# lint-ok: PC004 — why``) is free-form justification.
            word = token.strip().split()[0] if token.strip() else ""
            if word.startswith("PC"):
                ids.add(word)
        out[i] = ids or None
    return out


def _lint_file(
    path: str, rules: Sequence[Rule]
) -> Tuple[List[Violation], List[Violation]]:
    """One file's ``(violations, pragma_suppressed)`` rule hits."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return [
            Violation(
                path=path.replace(os.sep, "/"),
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="PC000",
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error",
            )
        ], []
    pragmas = _inline_pragmas(ctx.lines)
    found: List[Violation] = []
    pragma_hits: List[Violation] = []
    for rule in rules:
        if not rule.applies_to(ctx.module):
            continue
        for violation in rule.check(ctx):
            ids = pragmas.get(violation.line, ())
            if ids is None or (ids and violation.rule in ids):
                pragma_hits.append(violation)
                continue
            found.append(violation)
    return found, pragma_hits


def load_suppressions(path: str) -> List[Suppression]:
    """Read the checked-in suppression file.

    Raises:
        CheckError: for unreadable or malformed files.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckError(f"cannot read suppression file {path!r}: {exc}")
    except ValueError as exc:
        raise CheckError(f"suppression file {path!r} is not JSON: {exc}")
    entries = doc.get("suppressions") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise CheckError(
            f"suppression file {path!r} needs a top-level "
            "'suppressions' list"
        )
    out: List[Suppression] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {
            "rule", "path", "reason"
        } <= set(entry):
            raise CheckError(
                f"suppression #{i} in {path!r} needs rule/path/reason keys"
            )
        if not str(entry["reason"]).strip():
            raise CheckError(
                f"suppression #{i} in {path!r} has an empty reason — "
                "accepted exceptions must say why"
            )
        out.append(
            Suppression(
                rule=str(entry["rule"]),
                path=str(entry["path"]),
                reason=str(entry["reason"]),
                line=(
                    int(entry["line"])
                    if entry.get("line") is not None else None
                ),
            )
        )
    return out


# -- result cache ------------------------------------------------------
def _file_sha(source: bytes) -> str:
    return hashlib.sha256(source).hexdigest()


def _load_cache(path: Optional[str]) -> Dict[str, Dict[str, object]]:
    if not path or not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    if doc.get("version") != RULES_VERSION:
        return {}
    files = doc.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(
    path: Optional[str], files: Dict[str, Dict[str, object]]
) -> None:
    if not path:
        return
    doc = {"version": RULES_VERSION, "files": files}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    except OSError:  # pragma: no cover - cache is best-effort
        pass


def lint_paths(
    paths: Sequence[str],
    suppressions: Optional[Sequence[Suppression]] = None,
    rules: Optional[Sequence[Rule]] = None,
    cache_path: Optional[str] = None,
) -> LintReport:
    """Run the lint engine over *paths* and return the report.

    Args:
        paths: files and/or directories to lint.
        suppressions: checked-in accepted exceptions (see
            :func:`load_suppressions`).
        rules: rule subset (defaults to the full registry).
        cache_path: optional JSON result cache; files whose content
            hash matches are not re-parsed (the CI job persists this
            across runs via ``actions/cache``).
    """
    rules = list(rules) if rules is not None else all_rules()
    suppressions = list(suppressions or ())
    cache = _load_cache(cache_path)
    new_cache: Dict[str, Dict[str, object]] = {}
    report = LintReport()
    used: Set[int] = set()

    for path in iter_python_files(paths):
        key = path.replace(os.sep, "/")
        with open(path, "rb") as fh:
            sha = _file_sha(fh.read())
        entry = cache.get(key)
        if entry and entry.get("sha256") == sha:
            found = [
                Violation.from_dict(d)  # type: ignore[arg-type]
                for d in entry.get("violations", ())
            ]
            pragma_hits = [
                Violation.from_dict(d)  # type: ignore[arg-type]
                for d in entry.get("pragma_suppressed", ())
            ]
            report.files_from_cache += 1
        else:
            found, pragma_hits = _lint_file(path, rules)
        new_cache[key] = {
            "sha256": sha,
            "violations": [v.to_dict() for v in found],
            "pragma_suppressed": [v.to_dict() for v in pragma_hits],
        }
        report.files_checked += 1
        report.suppressed.extend(pragma_hits)
        for violation in found:
            for i, supp in enumerate(suppressions):
                if supp.matches(violation):
                    used.add(i)
                    report.suppressed.append(violation)
                    break
            else:
                report.violations.append(violation)

    report.unused_suppressions = [
        s for i, s in enumerate(suppressions) if i not in used
    ]
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    _save_cache(cache_path, new_cache)
    return report


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
def format_text(report: LintReport) -> str:
    """Human-readable report (the default CLI output)."""
    lines: List[str] = []
    for v in report.violations:
        lines.append(f"{v.path}:{v.line}:{v.col}: {v.rule} {v.message}")
        lines.append(f"    hint: {v.hint}")
    cached = (
        f" ({report.files_from_cache} from cache)"
        if report.files_from_cache else ""
    )
    lines.append(
        f"checked {report.files_checked} files{cached}: "
        f"{len(report.violations)} violation(s), "
        f"{len(report.suppressed)} suppressed"
    )
    for supp in report.unused_suppressions:
        lines.append(
            f"note: unused suppression {supp.rule} {supp.path}"
            + (f":{supp.line}" if supp.line else "")
        )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable report."""
    return json.dumps(
        {
            "version": RULES_VERSION,
            "files_checked": report.files_checked,
            "files_from_cache": report.files_from_cache,
            "violations": [v.to_dict() for v in report.violations],
            "suppressed": [v.to_dict() for v in report.suppressed],
            "ok": report.ok,
        },
        indent=1,
        sort_keys=True,
    )


def format_github(report: LintReport) -> str:
    """GitHub workflow-command annotations (``::error file=...``)."""
    lines = [
        f"::error file={v.path},line={v.line},col={v.col},"
        f"title={v.rule}::{v.message} — {v.hint}"
        for v in report.violations
    ]
    lines.append(
        f"checked {report.files_checked} files: "
        f"{len(report.violations)} violation(s)"
    )
    return "\n".join(lines)
