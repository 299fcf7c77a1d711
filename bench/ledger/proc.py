"""Child processes seen from outside: CPU placement, spawning, line reads
with a deadline, peak-RSS sampling over a process tree, and clean
stops."""

from __future__ import annotations

import functools
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from ledger import BenchError, child_env

#: How long a child gets to exit after SIGTERM before SIGKILL.
TERM_WAIT_S = 10.0

#: Seconds between two samples of a process tree's peak RSS.
RSS_INTERVAL_S = 0.02


class Cores:
    """While active, this process runs alone on the first allowed CPU,
    and :attr:`others` holds the rest (all of them when there is one),
    where the benchmark puts the process it measures.

    Unpinned on 2 cores, a server's threads preempt the load generator,
    whose p99 lateness then passes 200 us at a third of the server's
    capacity, and every faster step reads as generator-limited.
    """

    def __enter__(self) -> "Cores":
        self.allowed = sorted(os.sched_getaffinity(0))
        self.others = self.allowed[1:] or self.allowed
        os.sched_setaffinity(0, self.allowed[:1])
        return self

    def __exit__(self, *exc: Any) -> None:
        os.sched_setaffinity(0, self.allowed)


class Child:
    """A child process whose stdout is read line by line, on *cpus* if
    given (set between fork and exec, so its start-up runs there too; the
    benchmark spawns no child while one of its own threads runs).
    ``spawned`` is a ``time.monotonic()`` stamp.

    ``stdin`` stays open as a pipe: the benchmark's own children exit
    when it closes, so a crashed benchmark does not leave them behind.
    """

    def __init__(
        self,
        argv: Sequence[str],
        repo: str,
        cwd: str,
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        pin = functools.partial(os.sched_setaffinity, 0, list(cpus)) if cpus else None
        self.spawned = time.monotonic()
        self.popen = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(repo),
            cwd=cwd,
            preexec_fn=pin,
        )
        self.pid = self.popen.pid
        self._fd = self.popen.stdout.fileno()
        self._buf = b""

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises BenchError on EOF or timeout."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"child {self.pid} silent for {timeout:.0f}s")
            ready, _w, _x = select.select([self._fd], [], [], left)
            if ready:
                chunk = os.read(self._fd, 1 << 16)
                if not chunk:
                    raise BenchError(
                        f"child {self.pid} exited (code {self.popen.wait()})"
                    )
                self._buf += chunk
        line, _sep, self._buf = self._buf.partition(b"\n")
        return line.decode("utf-8", "replace")

    def expect(self, message: Dict[str, Any], timeout: float) -> None:
        """Read one JSON line; raises BenchError unless it is *message*."""
        line = self.readline(timeout)
        try:
            ok = json.loads(line) == message
        except ValueError:
            ok = False
        if not ok:
            raise BenchError(f"child {self.pid} sent {line!r}, not {message}")

    def send_line(self, text: str) -> None:
        self.popen.stdin.write(text.encode() + b"\n")
        self.popen.stdin.flush()

    def stop(self, grace: float = 10.0) -> int:
        """Close stdin and give the child *grace* seconds to exit, then
        SIGTERM, then SIGKILL after TERM_WAIT_S; reaps it either way."""
        try:
            self.popen.stdin.close()
        except OSError:
            pass
        try:
            self.popen.wait(grace)
        except subprocess.TimeoutExpired:
            try:
                self.popen.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.popen.wait(TERM_WAIT_S)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        self.popen.stdout.close()
        return self.popen.returncode


def status_kb(pid: int, field: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``;
    0 once the process is gone."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def children_of(pid: int) -> List[int]:
    """Direct children of *pid*, from every thread's children list."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", "r") as fh:
                out.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return out


class TreePeak:
    """Samples the peak RSS (``VmHWM``) of a process and its descendants
    from outside, every RSS_INTERVAL_S, on a background thread.

    The high-water mark only grows, so the last sample before a process
    exits is close to its true peak.  :meth:`total_mb` sums the peaks of
    every process seen: the tree's memory if all peaked together.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_kb: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        todo = [self.pid]
        while todo:
            pid = todo.pop()
            kb = status_kb(pid, "VmHWM")
            if kb > self.peak_kb.get(pid, 0):
                self.peak_kb[pid] = kb
            todo.extend(children_of(pid))

    def _run(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self.sample()

    def close(self) -> float:
        """Take a last sample and stop the thread (once); returns
        :meth:`total_mb`."""
        if not self._stop.is_set():
            self._stop.set()
            self._thread.join(timeout=5.0)
            self.sample()
        return self.total_mb()

    def total_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0
