"""One-thread load generation over pipelined line-protocol connections.

:func:`open_loop` sends each request at its due time whether or not
earlier ones were answered, and times every request from its due time,
so a server stall is charged to every request queued behind it.  It
also records how late the generator itself ran (``sent - due``).
:func:`closed_loop` keeps a fixed window of requests outstanding per
connection; it measures capacity, not latency.

The loop uses ``select.select``: its timeout has microsecond resolution,
where ``epoll`` rounds up to whole milliseconds.
"""

from __future__ import annotations

import functools
import gc
import math
import select
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

NAN = math.nan

#: How long before a due time the open loop stops sleeping and polls.
SPIN_S = 0.0005

#: How long a step waits after its last send for outstanding answers.
DRAIN_S = 10.0


def _without_gc(fn):
    """Keep the cyclic collector from pausing the generator mid-step."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return wrapper


def connect(host: str, port: int, count: int) -> List[socket.socket]:
    """*count* non-blocking connections with ``TCP_NODELAY`` set."""
    socks = []
    for _ in range(count):
        s = socket.create_connection((host, port), timeout=5.0)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.setblocking(False)
        socks.append(s)
    return socks


def close_all(socks: Sequence[socket.socket]) -> None:
    for s in socks:
        try:
            s.close()
        except OSError:
            pass


@dataclass
class StepResult:
    """One load step.  Times are seconds from the step's start; a
    request never answered has ``done = nan`` and ``line = None``."""

    seconds: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    lines: List[Optional[bytes]]
    max_outstanding: int

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def answered(self) -> np.ndarray:
        return ~np.isnan(self.done)

    @property
    def latencies(self) -> np.ndarray:
        """Due-to-response seconds of the answered requests."""
        ok = self.answered
        return self.done[ok] - self.due[ok]

    @property
    def lag(self) -> np.ndarray:
        """How late the generator handed each sent request to a socket."""
        ok = ~np.isnan(self.sent)
        return self.sent[ok] - self.due[ok]

    @property
    def answered_rps(self) -> float:
        """Answers received within the step, per second."""
        in_step = np.count_nonzero(self.done <= self.seconds)
        return in_step / self.seconds if self.seconds > 0 else 0.0


class _Conns:
    """Send and receive buffers, and the FIFO of request ids awaiting an
    answer, per connection (the server answers each one in order)."""

    def __init__(self, socks: Sequence[socket.socket]) -> None:
        self.socks = list(socks)
        self.by_fd = {s.fileno(): k for k, s in enumerate(self.socks)}
        self.fifo = [deque() for _ in self.socks]
        self.out = [bytearray() for _ in self.socks]
        self.tail = [b"" for _ in self.socks]
        self.alive = [True] * len(self.socks)

    def queue(self, k: int, payload: bytes, req: int) -> bool:
        if not self.alive[k]:
            return False
        self.out[k] += payload
        self.fifo[k].append(req)
        return True

    def flush(self) -> None:
        for k, s in enumerate(self.socks):
            buf = self.out[k]
            if buf and self.alive[k]:
                try:
                    del buf[: s.send(buf)]
                except BlockingIOError:
                    pass
                except OSError:
                    self.alive[k] = False

    def wait(self, timeout: float) -> List[int]:
        """Connections with data to read, waiting at most *timeout*."""
        rl = [s for k, s in enumerate(self.socks) if self.alive[k]]
        wl = [s for k, s in enumerate(self.socks) if self.alive[k] and self.out[k]]
        if not rl:
            time.sleep(max(timeout, 0.0))
            return []
        r, _w, _x = select.select(rl, wl, [], max(timeout, 0.0))
        return [self.by_fd[s.fileno()] for s in r]

    def read(self, k: int) -> List[tuple]:
        """Complete ``(request id, line)`` answers available on *k*."""
        try:
            data = self.socks[k].recv(1 << 16)
        except BlockingIOError:
            return []
        except OSError:
            data = b""
        if not data:
            self.alive[k] = False
            return []
        parts = (self.tail[k] + data).split(b"\n")
        self.tail[k] = parts.pop()
        fifo = self.fifo[k]
        return [(fifo.popleft(), line) for line in parts if fifo]


@_without_gc
def open_loop(
    socks: Sequence[socket.socket],
    payloads: Sequence[bytes],
    due: Sequence[float],
    seconds: float,
    max_backlog: float = math.inf,
) -> StepResult:
    """Send ``payloads[i]`` at ``due[i]`` (round-robin over *socks*) and
    collect every answer, waiting up to DRAIN_S after the last send for
    stragglers.  Once more than *max_backlog* requests are
    outstanding the step stops sending; the result then holds only the
    requests sent."""
    n = len(due)
    due_l = [float(d) for d in due]
    sent = [NAN] * n
    done = [NAN] * n
    lines: List[Optional[bytes]] = [None] * n
    conns = _Conns(socks)
    width = len(conns.socks)
    i = queued = completed = max_out = 0
    stop_at = math.inf
    clock = time.perf_counter
    t0 = clock()
    while True:
        now = clock() - t0
        while i < n and due_l[i] <= now:
            if conns.queue(i % width, payloads[i], i):
                sent[i] = now
                queued += 1
            i += 1
        conns.flush()
        outstanding = queued - completed
        if outstanding > max_out:
            max_out = outstanding
            if max_out > max_backlog:
                n = i
        if i >= n:
            if stop_at == math.inf:
                stop_at = now + DRAIN_S
            if outstanding == 0 or now >= stop_at or not any(conns.alive):
                break
            timeout = min(stop_at - now, 0.05)
        else:
            # Sleep until SPIN_S before the next due time, then poll:
            # waking from a sleep can take several hundred microseconds.
            timeout = due_l[i] - now - SPIN_S
        for k in conns.wait(timeout):
            got = conns.read(k)
            if got:
                t = clock() - t0
                for req, line in got:
                    done[req] = t
                    lines[req] = line
                completed += len(got)
    return StepResult(
        seconds=seconds,
        due=np.asarray(due_l[:n], dtype=np.float64),
        sent=np.asarray(sent[:n], dtype=np.float64),
        done=np.asarray(done[:n], dtype=np.float64),
        lines=lines[:n],
        max_outstanding=max_out,
    )


@_without_gc
def closed_loop(
    socks: Sequence[socket.socket],
    payloads: Sequence[bytes],
    seconds: float,
    window: int,
) -> StepResult:
    """Keep *window* requests outstanding per connection for *seconds*;
    request ``i`` is ``payloads[i % len(payloads)]``."""
    conns = _Conns(socks)
    n = len(payloads)
    sent: List[float] = []
    done: List[float] = []
    lines: List[Optional[bytes]] = []
    clock = time.perf_counter
    t0 = clock()

    def issue(k: int, now: float) -> None:
        req = len(sent)
        if now < seconds and conns.queue(k, payloads[req % n], req):
            sent.append(now)
            done.append(NAN)
            lines.append(None)

    for k in range(len(conns.socks)):
        for _ in range(window):
            issue(k, 0.0)
    max_out = completed = 0
    stop_at = seconds + DRAIN_S
    while True:
        conns.flush()
        now = clock() - t0
        outstanding = len(sent) - completed
        max_out = max(max_out, outstanding)
        if outstanding == 0 or now >= stop_at or not any(conns.alive):
            break
        for k in conns.wait(min(0.05, stop_at - now)):
            got = conns.read(k)
            if got:
                t = clock() - t0
                for req, line in got:
                    done[req] = t
                    lines[req] = line
                    issue(k, t)
                completed += len(got)
    sent_a = np.asarray(sent, dtype=np.float64)
    return StepResult(
        seconds=seconds,
        due=sent_a,
        sent=sent_a.copy(),
        done=np.asarray(done, dtype=np.float64),
        lines=lines,
        max_outstanding=max_out,
    )
