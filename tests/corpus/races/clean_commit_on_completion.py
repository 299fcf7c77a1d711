"""Clean pattern: ParaPLL's commit-on-completion (Proposition 1).

Workers commit to the shared store under a single commit lock; after
the joins the main thread reads lock-free.  A lockset (Eraser-style)
detector flags that unlocked read (the read's lockset is empty) — the
vector-clock engine must prove it race-free via the fork/join and lock
release/acquire edges."""

import threading

from repro.check import hooks

EXPECT = 0


def run() -> None:
    commit = hooks.make_lock("corpus.commit")

    def worker() -> None:
        # Private compute phase would go here; only the commit touches
        # the shared location, and only under the lock.
        with commit:
            hooks.access("corpus.labels", write=True)

    threads = [
        threading.Thread(target=worker, name=f"corpus-commit-{i}")
        for i in range(3)
    ]
    for t in threads:
        hooks.fork(t.name)
        t.start()
    for t in threads:
        t.join()
        hooks.join(t.name)
    # Lock-free read after all joins: ordered after every commit.
    hooks.access("corpus.labels", write=False)
