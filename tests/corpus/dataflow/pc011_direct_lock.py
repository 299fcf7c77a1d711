"""Seeded defect: a lock the race sanitizer cannot see (PC011) — a direct
``threading.Lock()`` instead of ``repro.check.hooks.make_lock``."""

import threading

EXPECT_RULES = ["PC011"]

_STATE_LOCK = threading.Lock()
