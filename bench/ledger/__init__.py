"""The benchmark ledger: end-to-end and per-layer measurements of
index builds and distance serving.

The package drives the program under test only through its public API
and the ``parapll`` CLI.  It never imports the program at module level:
:func:`use_repo` puts the checkout's ``src/`` on ``sys.path`` first, so
one copy of this benchmark can measure any checkout (see
``bench/compare.py``).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

#: The ``bench/`` directory this package lives in.
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The checkout this benchmark ships in.
DEFAULT_REPO = os.path.dirname(BENCH_DIR)

BENCHMARK_JSON = os.path.join(DEFAULT_REPO, "BENCHMARK.json")


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics, units and bounds."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)


class BenchError(Exception):
    """A benchmark failure that must end the run without a result."""


def use_repo(repo: str) -> str:
    """Make ``<repo>/src`` importable ahead of anything else.

    Raises:
        BenchError: when the checkout has no ``src/repro`` package.
    """
    src = os.path.join(os.path.abspath(repo), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchError(f"no program source at {src}/repro")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    return src


def child_env(repo: str) -> dict:
    """Environment for child processes: the checkout's ``src`` and this
    package importable, nothing inherited that changes the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.abspath(repo), "src"), BENCH_DIR]
    )
    for knob in (
        "PARAPLL_SANITIZE",
        "PARAPLL_FLIGHTREC_DIR",
        "PYTHONOPTIMIZE",
        "PYTHONDEVMODE",
    ):
        env.pop(knob, None)
    return env
