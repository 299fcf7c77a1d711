"""Every ``src/repro`` module is reachable from an entry point.

A module that only its own tests import is code the system does not
need.  This walks ``import`` statements (module level and lazy ones
inside functions alike) from the entry points: ``repro.cli``,
``repro.service``, ``repro.bench.__main__``, and every script under
``benchmarks/``, ``examples/`` and ``bench/`` (its own tests
excepted).  It fails on any module the walk does not reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_MODULES = ("repro.cli", "repro.service", "repro.bench.__main__")
ENTRY_DIRS = ("benchmarks", "examples", "bench")

#: Modules kept although no entry point imports them, with the reason.
UNREACHED_BY_DESIGN = {
    "repro.digraph": (
        "documented public extension and the only directed-graph path; "
        "deleting it is a decision of its own"
    ),
}


def _modules():
    """Every ``repro`` module name -> its source file."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _imports(path, modules):
    """The ``repro`` modules *path*'s import statements load.  The code
    imports absolutely; a relative import is not followed, so what it
    loads shows up as unreached."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
            # ``from pkg import name`` loads pkg.name when it is a module.
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    reached = set()
    for name in found:
        # Importing a.b.c also runs a and a.b.
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules:
                reached.add(prefix)
    return reached


def _reachable():
    modules = _modules()
    todo = list(ENTRY_MODULES)
    for d in ENTRY_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                todo.extend(_imports(path, modules))
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        todo.extend(_imports(modules[name], modules))
    return seen, modules


def test_every_module_is_reachable_from_an_entry_point():
    seen, modules = _reachable()
    unreached = {
        name for name in modules
        if name not in seen
        and not any(
            name == keep or name.startswith(keep + ".")
            for keep in UNREACHED_BY_DESIGN
        )
    }
    assert not unreached, (
        f"modules no entry point imports: {sorted(unreached)}; delete "
        "them, or name them in UNREACHED_BY_DESIGN with a reason"
    )


def test_exceptions_are_really_unreached():
    """An exception that an entry point now imports is stale."""
    seen, _ = _reachable()
    assert not set(UNREACHED_BY_DESIGN) & seen
