"""Seeded inputs: same seed, same requests and schedule; pinned identity."""

from __future__ import annotations

import numpy as np
import pytest

import run
from ledger.inputs import DEFAULT_SEED, STREAMS, load_pinned, verify_sources


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_same_seed_same_stream(kind):
    a = STREAMS[kind](7, 500)
    b = STREAMS[kind](7, 500)
    assert a.fingerprint() == b.fingerprint()
    np.testing.assert_array_equal(a.pairs, b.pairs)
    ia, da = a.schedule(1234, 250.0, 2.0)
    ib, db = b.schedule(1234, 250.0, 2.0)
    np.testing.assert_array_equal(ia, ib)
    np.testing.assert_array_equal(da, db)


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_other_seed_other_stream(kind):
    assert STREAMS[kind](7, 500).fingerprint() != STREAMS[kind](8, 500).fingerprint()


def test_schedule_is_poisson_at_the_rate_and_wraps():
    stream = STREAMS["point"](1, 500)
    idx, due = stream.schedule(len(stream) - 10, 5000.0, 4.0)
    assert np.all(np.diff(due) > 0) and due[-1] <= 4.0
    assert abs(len(due) / 4.0 - 5000.0) < 5000.0 * 0.05
    assert idx[0] == len(stream) - 10 and idx[10] == 0


def test_ramp_schedule_rises_linearly():
    stream = STREAMS["point"](2, 500)
    _idx, due = stream.schedule(0, 1000.0, 4.0, end_rate=5000.0)
    # Arrivals per second follow 1000 + 1000 t: 1500 in [0,1), 4500 in [3,4).
    first, last = np.sum(due < 1.0), np.sum(due >= 3.0)
    assert abs(first - 1500) < 150 and abs(last - 4500) < 300
    assert abs(len(due) - 12000) < 400


def test_point_stream_is_skewed_and_in_range():
    pairs = STREAMS["point"](3, 1000).pairs
    assert pairs.min() >= 0 and pairs.max() < 1000
    _values, counts = np.unique(pairs[:, 0], return_counts=True)
    # Zipf(1.1): the hottest vertex takes several percent of lookups.
    assert counts.max() / len(pairs) > 0.05


@pytest.mark.parametrize("kind, n", [("point", 4701), ("batch", 3600)])
def test_default_seed_stream_matches_its_pin(kind, n):
    pinned = load_pinned()[f"stream.{kind}"]
    assert STREAMS[kind](DEFAULT_SEED, n).fingerprint() == pinned


def test_identity_guard_refuses_a_changed_input():
    pinned = load_pinned()
    run.check_identity(pinned)
    with pytest.raises(run.IdentityError, match="graph.plaw"):
        run.check_identity(dict(pinned, **{"graph.plaw": "0" * 64}))


def test_verify_sources_are_distinct_and_seeded():
    a = verify_sources(5, 300)
    assert len(set(a.tolist())) == len(a) == 16
    np.testing.assert_array_equal(a, verify_sources(5, 300))
