"""Clean patterns that superficially resemble the seeded defects but
follow the rules — none of PC007–PC011 may fire here."""

from repro.check import hooks

EXPECT_RULES = []


def rank_setup(graph, triples):
    # Rank-private store: constructed locally, so PC007 exempts it.
    store = LabelStore(graph.n)  # noqa: F821 - shape only, never runs
    store.add_delta(triples)
    return store


def worker_commit_locked(store, commit_lock, triples):
    with commit_lock:
        store.add_delta(triples)


def handle_status(reply_queue):
    # Timed get: PC009 wants exactly this.
    return reply_queue.get(timeout=0.5)


def simulate_ordered(neighbors):
    frontier = set(neighbors)
    total = 0
    for v in sorted(frontier):
        total += v
    return total


def make_component_lock():
    return hooks.make_lock("corpus.component")
