"""``parapll serve`` with its serving layers timed.

Run: ``python -m ledger.serve_traced --totals FILE <serve options>``.
Installs the wrappers of :func:`ledger.trace.install_serve`, timing each
layer in its thread's CPU time, then calls
``repro.cli.main(["serve", ...])``.  After SIGTERM makes that return,
the layer totals are written to FILE.
"""

from __future__ import annotations

import argparse
import sys
import time

from ledger.trace import LayerClock, install_serve


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--totals", required=True)
    args, serve_args = ap.parse_known_args()
    clock = LayerClock(time.thread_time)
    install_serve(clock)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    clock.dump(args.totals)
    sys.exit(code)


if __name__ == "__main__":
    main()
