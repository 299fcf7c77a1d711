"""Scaling CPU-bound measurements to a quiet host."""

from __future__ import annotations

import os
import time

import pytest

from conftest import REPO
from ledger.proc import status_kb
from ledger.reference import (
    QUIET_S, SHARE, Burst, Gather, SpeedLog, at_quiet_speed,
)
from ledger.serve import quiet_rate, quiet_setup_s


def _at(t, slowdown):
    """A burst of each kind starting at *t*, *slowdown* times their
    quiet time."""
    return [(t, kind, slowdown * q) for kind, q in enumerate(QUIET_S)]


def _log(samples):
    log = SpeedLog(REPO, sorted(samples))
    log.samples = samples
    return log


def test_work_on_a_half_speed_host_reads_as_on_a_quiet_one():
    log = _log({0: _at(0.0, 2) + _at(1.0, 2)})
    assert at_quiet_speed(2.0, log.speed(0.0, 2.0)) == pytest.approx(1.0)


def test_speed_comes_from_the_bursts_inside_the_interval():
    log = _log({0: _at(0.0, 1) + _at(1.0, 2) + _at(2.0, 4) + _at(3.0, 1)})
    assert log.speed(0.5, 2.5) == pytest.approx((0.5 + 0.25) / 2)
    # No burst inside: the nearest one stands for the interval.
    assert log.speed(2.1, 2.2) == pytest.approx(0.25)


def test_speed_averages_the_two_kinds():
    # The Dijkstra at full speed, the gather at half speed.
    log = _log({0: [(0.0, 0, QUIET_S[0]), (0.0, 1, 2 * QUIET_S[1])]})
    assert log.speed(0.0, 1.0) == pytest.approx(0.75)


def test_speed_is_per_cpu_or_averaged_and_wall_time_leaves_the_samplers_share():
    log = _log({0: _at(0.0, 1), 1: _at(0.0, 2)})
    assert log.speed(0.0, 1.0, cpu=1) == pytest.approx(0.5)
    assert log.speed(0.0, 1.0) == pytest.approx(0.75)
    assert log.speed(0.0, 1.0, wall=True) == pytest.approx(0.75 * (1 - SHARE))


def test_serve_set_up_and_rate_scale_by_their_own_windows():
    log = _log({1: _at(0.0, 2) + _at(10.0, 1)})
    keep = 1 - SHARE
    # Cold starts of 0.4 s at half speed and 0.2 s at full speed.
    assert quiet_setup_s([(0.0, 0.4), (10.0, 10.2)], log) == pytest.approx(
        (0.2 + 0.2) / 2 * keep
    )
    # 50/s at half speed is 100/s on a quiet host with no sampler.
    assert quiet_rate([(50.0, 0.0, 1.0)], log) == pytest.approx(100.0 / keep)


def test_the_reference_bursts_take_time():
    assert Burst().run() > 0.0
    assert Gather().run() > 0.0


def test_a_sampler_takes_its_share_of_one_cpu_alternates_kinds_and_exits():
    cpu = sorted(os.sched_getaffinity(0))[-1]
    with SpeedLog(REPO, [cpu]) as log:
        pid = log._children[0].pid
        time.sleep(1.0)
    samples = log.samples[cpu]
    assert len(samples) >= 10
    assert [kind for _t, kind, _s in samples[:4]] == [0, 1, 0, 1]
    span = samples[-1][0] - samples[0][0]
    share = sum(took for _t, _k, took in samples[:-1]) / span
    assert 0.5 * SHARE < share < 2 * SHARE
    assert status_kb(pid, "VmRSS") == 0
