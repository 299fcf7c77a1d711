"""Seeded defect: two threads write one location with no lock and no
happens-before edge — the canonical data race.

The raw Barrier makes the two threads' writes overlap in time without
giving the detector a sync edge — it is not a tracked barrier."""

import threading

from repro.check import hooks

EXPECT = 1


def run() -> None:
    both_running = threading.Barrier(2)

    def bump() -> None:
        both_running.wait()
        for _ in range(3):
            hooks.access("corpus.counter", write=True)

    threads = [
        threading.Thread(target=bump, name=f"corpus-bump-{i}")
        for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
