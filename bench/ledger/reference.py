"""How fast each CPU runs while the benchmark measures, from a reference
task timed on it all along.

On the shared 2-vCPU host this benchmark was written on, other tenants
slow each vCPU on its own.  Timed side by side, one CPU ran a pure-Python
task 1.7 times slower than the other for tens of seconds, each CPU's
speed swung by up to 2x within a few seconds, and the two CPUs' speeds
did not move together (correlation -0.38 over 0.5 s bins).  A process's
CPU time grows with the slowdown as its wall time does, so CPU time alone
does not remove it, and samples taken just before and after a 3-second
build miss the swings inside it.

So while the benchmark times CPU-bound work, a sampler process pinned to
each CPU the work runs on (``python -m ledger.reference --cpu K``) times
short bursts of a reference task over and over, the benchmark's own
code, never the program's.  The bursts alternate between two kinds:

- :class:`Burst`, a pure-Python Dijkstra over a small fixed random graph,
  leaning on the same dicts, lists and heaps as the program and staying
  in the CPU's own caches;
- :class:`Gather`, a sum over floats read in a fixed random order from a
  list of about 64 MB, which waits on memory as the label scans of a
  road build do.

Other tenants slow the two kinds by different amounts, and the program
sits between them.  After each burst the sampler sleeps ``1/SHARE - 1``
times as long as the burst took, so it takes SHARE of its CPU whatever
the host's speed.  :meth:`SpeedLog.speed` is, for each kind, the mean
over the bursts that started in an interval of the kind's ``QUIET_S``
over the burst's time, averaged over the two kinds: the share of a quiet
host's speed the CPU ran at.  A time scaled by it reads as the time the
same work takes on a quiet host.

Measured on that host in a busy hour, with the build and a sampler
pinned to one CPU (a sampler on each CPU for two-process builds), the
quartile distance over the median of medians of consecutive builds:

=======================================  =====  =========  ====
builds                                   raw    Dijkstra   both
=======================================  =====  =========  ====
74 serial ``road``, medians of 4         24%    8.3%       4.6%
108 serial ``plaw``, medians of 6        32%    5.1%       4.1%
94 two-process ``plaw``, medians of 6    13%    3.1%       2.6%
=======================================  =====  =========  ====

"Dijkstra" scales by :class:`Burst` alone; it tracks too little of a
road build's slowdown (its scaled times still rose with the raw ones,
correlation 0.82), and the gather alone too much on ``plaw``
(correlation -0.61).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import select
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ledger.proc import Child

#: Each kind's burst on a quiet host, indexed by kind (:class:`Burst`,
#: then :class:`Gather`).  The Dijkstra's is the 5th percentile of 4,866
#: bursts over 90 s on both CPUs of the host above; the gather's stands
#: to it as their 5th percentiles did over 11,500 bursts of each, timed
#: alternately.
QUIET_S = (0.0015, 0.0019)

#: The share of its CPU a sampler takes.
SHARE = 1.0 / 16.0

_N, _M = 512, 2048
_VALUES, _ORDER, _READS = 1 << 21, 1 << 16, 12000


class Burst:
    """The reference task's first kind: Dijkstra from one source over a
    fixed random graph with _N vertices and _M edges."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in range(_N)]
        for _ in range(_M):
            a, b = int(rng.random() * _N), int(rng.random() * _N)
            c = rng.random()
            self._adj[a].append((b, c))
            self._adj[b].append((a, c))

    def run(self) -> float:
        """CPU seconds of this thread one burst takes now."""
        adj = self._adj
        t0 = time.thread_time()
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        done = set()
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            done.add(x)
            for y, c in adj[x]:
                nd = d + c
                if nd < dist.get(y, float("inf")):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        return time.thread_time() - t0


class Gather:
    """The reference task's second kind: the sum of _READS floats, read
    in a fixed random order from a list of _VALUES of them, each burst
    from the next stretch of the order."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._values = [rng.random() for _ in range(_VALUES)]
        self._order = [int(rng.random() * _VALUES) for _ in range(_ORDER)]
        self._at = 0

    def run(self) -> float:
        """CPU seconds of this thread one burst takes now."""
        at = self._at
        self._at = (at + _READS) % (_ORDER - _READS)
        values = self._values
        t0 = time.thread_time()
        total = 0.0
        for i in self._order[at:at + _READS]:
            total += values[i]
        return time.thread_time() - t0


def at_quiet_speed(seconds: float, speed: float) -> float:
    """*seconds* of work done at *speed* (share of a quiet host's speed),
    as on a quiet host."""
    return seconds * speed


class SpeedLog:
    """A sampler on each of *cpus* from ``__enter__`` until :meth:`stop`
    (or ``__exit__``); then :meth:`speed` gives any interval's speed.
    Times are ``time.monotonic()``, one clock for every process."""

    def __init__(self, repo: str, cpus: Sequence[int]) -> None:
        self.repo = repo
        self.cpus = list(cpus)
        self._children: List[Child] = []
        #: CPU -> ``[(start, kind, seconds), ...]`` of its bursts, once
        #: stopped.
        self.samples: Dict[int, List[Tuple[float, int, float]]] = {}

    def __enter__(self) -> "SpeedLog":
        try:
            for cpu in self.cpus:
                child = Child(
                    ["-m", "ledger.reference", "--cpu", str(cpu)],
                    self.repo, self.repo,
                )
                self._children.append(child)
                child.expect({"ready": True}, 60.0)
        except BaseException:
            self._stop_children()
            raise
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.stop()
        self._stop_children()

    def stop(self) -> None:
        """End sampling and collect every CPU's bursts (once)."""
        if self.samples or not self._children:
            return
        try:
            for cpu, child in zip(self.cpus, self._children):
                child.send_line("stop")
                self.samples[cpu] = [
                    (start, int(kind), took)
                    for start, kind, took in json.loads(child.readline(30.0))
                ]
        finally:
            self._stop_children()

    def _stop_children(self) -> None:
        children, self._children = self._children, []
        for child in children:
            child.stop(grace=5.0)

    def speed(
        self, start: float, end: float, cpu: Optional[int] = None,
        wall: bool = False,
    ) -> float:
        """Share of a quiet host's speed from *start* to *end*, on *cpu*
        or, by default, averaged over every sampled CPU.  With *wall*, for
        a wall time on the sampled CPUs, it also counts the share of them
        the samplers took from the measured work."""
        speeds = []
        for c in [cpu] if cpu is not None else self.cpus:
            for kind, quiet in enumerate(QUIET_S):
                samples = [(t, s) for t, k, s in self.samples[c] if k == kind]
                took = [s for t, s in samples if start <= t < end]
                if not took:
                    mid = (start + end) / 2
                    took = [min(samples, key=lambda ts: abs(ts[0] - mid))[1]]
                speeds.append(sum(quiet / s for s in took) / len(took))
        speed = sum(speeds) / len(speeds)
        return speed * (1.0 - SHARE) if wall else speed


def main() -> None:
    """Time bursts of both kinds in turn on one CPU until a line arrives
    on stdin, then print ``[[start, kind, seconds], ...]`` as one JSON
    line."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    bursts = [Burst(), Gather()]
    for burst in bursts:
        burst.run()
    print(json.dumps({"ready": True}), flush=True)
    samples = []
    while True:
        kind = len(samples) % len(bursts)
        start = time.monotonic()
        took = bursts[kind].run()
        samples.append((start, kind, took))
        pause = took * (1.0 / SHARE - 1.0)
        if select.select([sys.stdin], [], [], pause)[0]:
            break
    print(json.dumps(samples), flush=True)
    sys.stdin.read()


if __name__ == "__main__":
    main()
