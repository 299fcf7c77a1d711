"""Make the benchmark package and the program importable.

Run: ``PYTHONPATH=src python -m pytest bench/tests -q`` from the root.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)

for path in (BENCH_DIR, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
