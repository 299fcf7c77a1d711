"""``repro.check``: correctness tooling for the ParaPLL codebase.

A concurrency-correctness analysis suite, all reachable through
``parapll check``:

* :mod:`repro.check.lint` — an AST-based static analyzer with
  project-specific rules (PC001–PC006): determinism in simulated
  paths, lock discipline around shared stores, float-distance
  comparison hygiene, worker exception hygiene, import layering, and
  label-internal privacy.
* :mod:`repro.check.vectorclock` — the opt-in race sanitizer: a
  FastTrack-style happens-before detector that wraps the shared-memory
  build's hot objects (``LabelStore``, ``DynamicAssignment``,
  ``ThreadComm``) and consumes the synchronization events (locks,
  thread fork/join, comm envelope send/recv, barriers) to report any
  pair of conflicting accesses no happens-before edge orders.
* :mod:`repro.check.deadlock` — lock-order analysis: the runtime
  acquisition graph (cycles) plus a static nested-``with`` pass
  (order inversions).
* :mod:`repro.check.dataflow` — a call graph with thread-role
  inference powering the interprocedural rules PC007–PC011.
* :mod:`repro.check.invariants` — a label-invariant verifier for built
  :class:`~repro.core.index.PLLIndex` objects (sorted hubs, finite
  non-negative distances, minimality, sampled 2-hop exactness against
  Dijkstra).
* :mod:`repro.check.corpus` — the seeded-defect corpus runner pinning
  each analyzer's detection power (``tests/corpus/``).
* :mod:`repro.check.report` — the common ``parapll-check/1`` JSON
  envelope every analyzer emits for CI.

The package sits *above* every runtime layer: ``repro.check`` may
import anything, but runtime modules may only import the dependency-free
:mod:`repro.check.hooks` facade (enforced by the linter's own layering
rule, PC005).
"""

from __future__ import annotations

from typing import Any

#: Lazy exports (PEP 562): runtime modules import the dependency-free
#: ``repro.check.hooks`` facade, and that import must not drag the
#: lint engine, the sanitizer, or the verifier (and their transitive
#: numpy/baselines dependencies) into every build.
_EXPORTS = {
    "InvariantReport": "repro.check.invariants",
    "verify_index": "repro.check.invariants",
    "LintReport": "repro.check.lint",
    "Violation": "repro.check.lint",
    "all_rules": "repro.check.lint",
    "lint_paths": "repro.check.lint",
    "load_suppressions": "repro.check.lint",
    "VectorClockSanitizer": "repro.check.vectorclock",
    "VCRaceReport": "repro.check.vectorclock",
    "get_vc_sanitizer": "repro.check.vectorclock",
    "LockOrderRecorder": "repro.check.deadlock",
    "CallGraph": "repro.check.dataflow",
    "DataflowReport": "repro.check.dataflow",
    "analyze_paths": "repro.check.dataflow",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "InvariantReport",
    "verify_index",
    "LintReport",
    "Violation",
    "all_rules",
    "lint_paths",
    "load_suppressions",
    "VectorClockSanitizer",
    "VCRaceReport",
    "get_vc_sanitizer",
    "LockOrderRecorder",
    "CallGraph",
    "DataflowReport",
    "analyze_paths",
]
