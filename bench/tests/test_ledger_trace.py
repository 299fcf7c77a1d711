"""Layer clocks: self time, fork hygiene, and the residual check."""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

from ledger.builds import MAX_RESIDUAL
from ledger.trace import LayerClock, residual_frac


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _program():
    """A stand-in program: ``outer`` does some work and calls ``inner``."""
    ns = SimpleNamespace()
    ns.inner = lambda: _spin(0.02)

    def outer():
        _spin(0.03)
        ns.inner()

    ns.outer = outer
    ns.unused = lambda: None
    return ns


def _traced_wall(clock: LayerClock, program) -> float:
    t0 = time.perf_counter()
    program.outer()
    return time.perf_counter() - t0


def test_self_time_excludes_nested_layers():
    clock, program = LayerClock(), _program()
    clock.patch(program, "outer", "outer")
    clock.patch(program, "inner", "inner")
    wall = _traced_wall(clock, program)
    seconds = clock.totals()["seconds"]
    assert seconds["inner"] >= 0.02
    assert seconds["outer"] >= 0.03
    # Nested time counts once, whatever the host's stalls: the two self
    # times add up to no more than the wall time around the outer call.
    assert seconds["outer"] + seconds["inner"] <= wall
    assert residual_frac(wall, clock.totals()) <= MAX_RESIDUAL
    clock.restore()
    assert not hasattr(program.outer, "__wrapped__")


def test_residual_check_fails_when_a_wrapped_layer_is_never_called():
    clock, program = LayerClock(), _program()
    clock.patch(program, "unused", "unused")
    clock.patch(program, "inner", "inner")
    wall = _traced_wall(clock, program)
    assert clock.totals()["calls"] == {"inner": 1}
    # Only 0.02 s of the 0.05 s are explained: the check must fail.
    assert residual_frac(wall, clock.totals()) > MAX_RESIDUAL


def test_forked_child_starts_from_zero():
    clock, program = LayerClock(), _program()
    clock.patch(program, "inner", "inner")
    program.inner()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: one call of its own, then report
        program.inner()
        os.write(write, str(clock.totals()["calls"].get("inner", 0)).encode())
        os._exit(0)
    os.close(write)
    child_calls = int(os.read(read, 16))
    os.waitpid(pid, 0)
    os.close(read)
    assert child_calls == 1
    assert clock.totals()["calls"]["inner"] == 1
