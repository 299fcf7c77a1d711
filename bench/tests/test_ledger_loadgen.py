"""The open loop charges a server stall to every request queued behind it."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import REPO
from ledger import loadgen
from ledger.proc import Child

PING = b'{"op": "ping"}\n'


@pytest.fixture
def stalling_stub():
    """An echo stub that stalls 50 ms once, after 200 request lines."""
    stub = Child(
        ["-m", "ledger.echo_stub", "--stall-after", "200", "--stall-ms", "50"],
        REPO,
        REPO,
    )
    try:
        yield int(stub.readline(30.0).split()[1])
    finally:
        assert stub.stop(grace=5.0) == 0


def test_latency_counts_from_due_time_through_a_stall(stalling_stub):
    socks = loadgen.connect("127.0.0.1", stalling_stub, 2)
    try:
        rate, seconds = 2000.0, 0.5
        due = np.arange(int(rate * seconds)) / rate
        result = loadgen.open_loop(socks, [PING] * len(due), due, seconds)
    finally:
        loadgen.close_all(socks)
    assert result.answered.all()
    latency = result.done - result.due
    # The 201st line reaches the stub at about 0.1 s; the stall ends no
    # earlier than 0.15 s, so a request due at d waits >= 0.15 - d.
    queued = (result.due > 0.102) & (result.due < 0.14)
    assert queued.sum() > 60
    assert np.all(latency[queued] >= 0.15 - result.due[queued] - 0.002)
    assert latency.max() >= 0.045
    # The latencies come from the stall, not from the generator running
    # late (a shared host can hold it up for a few milliseconds).
    assert np.percentile(result.lag, 99) < 0.02
    # Once the queue drains, answers are prompt again.
    assert np.median(latency[result.due > 0.35]) < 0.005


def test_closed_loop_keeps_the_window_full(stalling_stub):
    socks = loadgen.connect("127.0.0.1", stalling_stub, 2)
    try:
        result = loadgen.closed_loop(socks, [PING], 0.3, window=3)
    finally:
        loadgen.close_all(socks)
    assert result.answered.all()
    assert result.max_outstanding == 6
    assert result.answered_rps > 1000
