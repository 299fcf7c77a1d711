"""Seeded defect: a worker-role function commits into a shared store
through the arena mutators, with no hooks-managed lock held (PC007).
``add_root`` and ``extend_from_arrays`` mutate the store as surely as
``add_delta`` does."""

EXPECT_RULES = ["PC007"]


def worker_commit_arrays(store, root_rank, verts, dists, hubs):
    store.add_root(root_rank, verts, dists)
    store.extend_from_arrays(verts, hubs, dists)
