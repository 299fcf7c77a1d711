"""Serve workloads: ``parapll serve`` as a child process under open-loop
load from one single-thread generator.

Protocol of an untraced run of S seconds:

1. cold-start the server 5 times; ``setup_s`` is the median time from
   spawn to the first answered ``ping`` (the last server stays up);
2. a closed-loop probe (0.35 S) keeping 2 requests outstanding per
   connection, in 7 pieces: ``throughput`` is the median over the
   pieces of the answers per second;
3. warm-up at the nominal rate, discarded (0.05 S);
4. the nominal step (0.35 S), giving ``p50_ms``.

During the cold starts and the probe a sampler times the reference task
on the server's CPU, and ``setup_s`` and ``throughput`` are scaled to a
quiet host (:mod:`ledger.reference`).  The sampler stops before the
warm-up, and ``p50_ms`` is not scaled: at the nominal rate a request
mostly waits for the network, not for a processor.

The traced run adds a ramp (0.35 S) against the untraced server, whose
Poisson rate rises linearly from the nominal rate to 2x the probed
capacity, judged in 50 equal windows.  ``max_rps`` is the rate of the
last window that meets the workload's p99 limit with no errors, answers
at least 0.97x of its requests within the limit of the window's end,
ends with no backlog beyond ``rate x limit``, and is not
generator-limited.  Past the knee the backlog only grows, so no later
window can pass; a host stall below the knee fails one window and moves
nothing.  Over ten runs its quartile spread is about twice the probe's,
so it is a per-layer metric and the probe's rate is the end-to-end one.

Every answer of every phase is checked against the benchmark's own
``PLLIndex.load`` of the same bundle.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import socket
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ledger import BenchError
from ledger import loadgen
from ledger.inputs import STREAMS, Stream, WorkDir
from ledger.proc import Child, Cores, status_kb
from ledger.reference import SpeedLog, at_quiet_speed

COLD_STARTS = 5
PROBE_WINDOW = 2
PROBE_PIECES = 7
RAMP_WINDOWS = 50
#: The ramp tops out at this multiple of the probed capacity, and stops
#: sending once a quarter second of its top rate is outstanding.
RAMP_TOP = 2.0
RAMP_MAX_BACKLOG_S = 0.25
MIN_ACHIEVED = 0.97
#: A window is generator-limited, and never passes, when the generator
#: ran later than this share of the latency limit at p99 (200 us for a
#: 10 ms limit), or offered this share of its own ceiling.
LAG_SHARE = 0.02
CEILING_SHARE = 0.8
#: Requests outstanding per connection while measuring that ceiling:
#: enough that round trips to the stub do not bound it.
CEILING_WINDOW = 32
SHARES = {"probe": 0.35, "warm": 0.05, "nominal": 0.35}
#: The traced run probes only to place the ramp's top, and its step
#: against the traced server only splits time into layers, so both are
#: shorter; its untraced nominal step keeps SHARES' length for p99_ms.
TRACED_SHARES = {"probe": 0.15, "ramp": 0.35, "traced": 0.10}
#: Where each phase starts in the cyclic stream (share of its length),
#: so the nominal step sends the same requests whatever the probe did.
OFFSETS = {"probe": 0.0, "warm": 0.15, "nominal": 0.25, "ramp": 0.5}


@dataclass(frozen=True)
class ServeSpec:
    name: str
    graph: str
    stream: str
    nominal_rps: float
    p99_limit_s: float


def connections() -> int:
    """Load comes over at most ``nproc`` connections."""
    return max(1, min(2, os.cpu_count() or 1))


# ----------------------------------------------------------------------
class Server:
    """``parapll serve`` (or the traced launcher) as a child process."""

    def __init__(
        self,
        wd: WorkDir,
        cores: Cores,
        bundle: str,
        totals_path: Optional[str] = None,
    ) -> None:
        # --duration: a server orphaned by a killed benchmark still exits.
        serve = ["--index", bundle, "--mmap", "--port", "0", "--duration", "300"]
        if totals_path is None:
            argv = ["-m", "repro.cli", "serve", *serve]
        else:
            argv = ["-m", "ledger.serve_traced", "--totals", totals_path, *serve]
        self.child = Child(argv, wd.repo, wd.repo, cpus=cores.others)
        try:
            line = self.child.readline(60.0)
            if not line.startswith("serving "):
                raise BenchError(f"unexpected server banner {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self.call({"op": "ping"})
        except BaseException:
            self.child.stop(grace=0)
            raise
        #: Spawn to first answered ping, as ``time.monotonic()`` stamps.
        self.setup_window = (self.child.spawned, time.monotonic())

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One blocking request on a fresh connection."""
        try:
            with socket.create_connection(
                ("127.0.0.1", self.port), timeout=10.0
            ) as s:
                s.sendall(json.dumps(request).encode() + b"\n")
                with s.makefile("rb") as fh:
                    line = fh.readline()
        except OSError as exc:
            raise BenchError(f"server on port {self.port}: {exc}") from exc
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BenchError(f"server answered {reply}")
        return reply

    def peak_mb(self) -> float:
        return status_kb(self.child.pid, "VmHWM") / 1024.0

    def stop(self) -> None:
        code = self.child.stop(grace=0)
        if code not in (0, -15):
            raise BenchError(f"server exited with code {code}")


def cold_starts(
    wd: WorkDir, cores: Cores, bundle: str
) -> Tuple[List[Tuple[float, float]], Server]:
    """Start the server COLD_STARTS times; returns each start's window
    (spawn to first answered ping) and the last server, which stays
    up."""
    windows = []
    for k in range(COLD_STARTS):
        server = Server(wd, cores, bundle)
        windows.append(server.setup_window)
        if k < COLD_STARTS - 1:
            server.stop()
    return windows, server


# ----------------------------------------------------------------------
class Requests:
    """The workload's stream: wire encoding and expected answers."""

    def __init__(self, spec: ServeSpec, stream: Stream, index: Any) -> None:
        self.kind = spec.stream
        self.stream = stream
        self.index = index

    def pairs(self, idx: np.ndarray) -> np.ndarray:
        return self.stream.pairs[idx].reshape(-1, 2)

    def encode(self, idx: np.ndarray) -> List[bytes]:
        if self.kind == "point":
            return [
                b'{"op":"distance","s":%d,"t":%d}\n' % (s, t)
                for s, t in self.stream.pairs[idx].tolist()
            ]
        return [
            b'{"op":"batch","pairs":%s}\n' % json.dumps(p).encode()
            for p in self.stream.pairs[idx].tolist()
        ]

    def wrong(self, idx: np.ndarray, lines: List[Optional[bytes]]) -> np.ndarray:
        """Per request: answered wrongly, with ``ok: false``, or not at all."""
        if len(idx) == 0:
            return np.zeros(0, dtype=bool)
        want = self.index.distance_batch(self.pairs(idx)).reshape(len(idx), -1)
        got = np.full(want.shape, np.nan)
        for row, line in enumerate(lines):
            if line is None:
                continue
            try:
                reply = json.loads(line)
            except ValueError:
                continue
            if not reply.get("ok"):
                continue
            values = (
                [reply.get("distance")]
                if self.kind == "point"
                else reply.get("distances")
            )
            if isinstance(values, list) and len(values) == want.shape[1]:
                got[row] = [math.inf if v == "inf" else v for v in values]
        same = (got == want) | np.isclose(got, want, rtol=1e-12, atol=1e-9)
        return ~same.all(axis=1)


@dataclass
class Step:
    """One load phase and, per request, whether its answer was wrong."""

    result: loadgen.StepResult
    wrong: np.ndarray

    @property
    def errors(self) -> int:
        return int(self.wrong.sum())

    def _pct(self, values: np.ndarray, q: float) -> float:
        return float(np.percentile(values, q)) if len(values) else math.inf

    @property
    def p50_s(self) -> float:
        return self._pct(self.result.latencies, 50)

    @property
    def p99_s(self) -> float:
        return self._pct(self.result.latencies, 99)

    @property
    def lag_p99_s(self) -> float:
        return self._pct(self.result.lag, 99)

    def passes(
        self, start: float, end: float, limit_s: float, ceiling_rps: float
    ) -> bool:
        """Whether the requests due in ``[start, end)`` meet every limit."""
        r = self.result
        sel = (r.due >= start) & (r.due < end)
        n = int(sel.sum())
        if n == 0:
            return False
        offered = n / (end - start)
        done = r.done[sel]
        latency = np.where(np.isnan(done), np.inf, done - r.due[sel])
        lag = np.nan_to_num(r.sent[sel] - r.due[sel], nan=np.inf)
        backlog = np.count_nonzero(r.sent <= end) - np.count_nonzero(r.done <= end)
        generator_kept_up = (
            np.percentile(lag, 99) <= LAG_SHARE * limit_s
            and offered < CEILING_SHARE * ceiling_rps
        )
        return bool(
            not self.wrong[sel].any()
            and np.percentile(latency, 99) <= limit_s
            and np.count_nonzero(done <= end + limit_s) >= MIN_ACHIEVED * n
            and backlog <= offered * limit_s
            and generator_kept_up
        )


class Session:
    """Load phases against one running server."""

    def __init__(self, server: Server, requests: Requests) -> None:
        self.requests = requests
        self.socks = loadgen.connect("127.0.0.1", server.port, connections())
        self.steps: List[Step] = []
        self._probe_at = self.cursor("probe")

    def close(self) -> None:
        loadgen.close_all(self.socks)

    def cursor(self, phase: str) -> int:
        return int(len(self.requests.stream) * OFFSETS[phase])

    def probe(self, seconds: float) -> Step:
        """A closed-loop step; each call goes on where the last stopped."""
        size = len(self.requests.stream)
        idx = (self._probe_at + np.arange(size // 8)) % size
        result = loadgen.closed_loop(
            self.socks, self.requests.encode(idx), seconds, PROBE_WINDOW
        )
        self._probe_at += result.attempted
        return self._record(idx[np.arange(result.attempted) % len(idx)], result)

    def probe_pieces(self, seconds: float) -> List[Tuple[float, float, float]]:
        """The probe in PROBE_PIECES equal steps; returns each step's
        ``(answer rate, start, end)``, stamps from ``time.monotonic()``."""
        pieces = []
        for _ in range(PROBE_PIECES):
            start = time.monotonic()
            rate = self.probe(seconds / PROBE_PIECES).result.answered_rps
            pieces.append((rate, start, time.monotonic()))
        return pieces

    def open(
        self,
        phase: str,
        rate: float,
        seconds: float,
        end_rate: float = 0.0,
        max_backlog: float = math.inf,
    ) -> Step:
        idx, due = self.requests.stream.schedule(
            self.cursor(phase), rate, seconds, end_rate
        )
        result = loadgen.open_loop(
            self.socks,
            self.requests.encode(idx),
            due,
            seconds,
            max_backlog=max_backlog,
        )
        return self._record(idx[: result.attempted], result)

    def _record(self, idx: np.ndarray, result: loadgen.StepResult) -> Step:
        step = Step(result, self.requests.wrong(idx, result.lines))
        self.steps.append(step)
        return step

    @property
    def attempted(self) -> int:
        return sum(s.result.attempted for s in self.steps)

    @property
    def failed(self) -> int:
        return sum(s.errors for s in self.steps)


@contextlib.contextmanager
def serving(server: Server, requests: Requests) -> Iterator[Session]:
    """Connections to a running server; stops the server on exit."""
    session = None
    try:
        session = Session(server, requests)
        yield session
    finally:
        if session is not None:
            session.close()
        server.stop()


def measure_ceiling(wd: WorkDir, cores: Cores, seconds: float = 0.5) -> float:
    """The generator's own ceiling: answers per second it handles against
    the echo stub, which answers at once, with CEILING_WINDOW requests
    outstanding per connection."""
    stub = Child(["-m", "ledger.echo_stub"], wd.repo, wd.repo, cpus=cores.others)
    try:
        port = int(stub.readline(30.0).split()[1])
        socks = loadgen.connect("127.0.0.1", port, connections())
        try:
            result = loadgen.closed_loop(
                socks, [b'{"op":"ping"}\n'], seconds, CEILING_WINDOW
            )
        finally:
            loadgen.close_all(socks)
    finally:
        stub.stop(grace=5.0)
    return result.answered_rps


def knee(
    ramp: Step, lo: float, hi: float, limit_s: float, ceiling_rps: float
) -> Tuple[float, str]:
    """``(rate of the last passing ramp window or 0, verdicts)``; the
    verdicts string has one ``+`` or ``-`` per window."""
    seconds = ramp.result.seconds
    width = seconds / RAMP_WINDOWS
    best, marks = 0.0, []
    for k in range(RAMP_WINDOWS):
        ok = ramp.passes(k * width, (k + 1) * width, limit_s, ceiling_rps)
        marks.append("+" if ok else "-")
        if ok:
            best = lo + (hi - lo) * (k + 0.5) / RAMP_WINDOWS
    return best, "".join(marks)


def quiet_setup_s(windows: List[Tuple[float, float]], log: SpeedLog) -> float:
    """Median cold start on a quiet host: each start's wall seconds at
    the speed the servers' CPUs ran at meanwhile, less the sampler's
    share of them."""
    return float(statistics.median(
        at_quiet_speed(end - start, log.speed(start, end, wall=True))
        for start, end in windows
    ))


def quiet_rate(pieces: List[Tuple[float, float, float]], log: SpeedLog) -> float:
    """Median over the probe's pieces of the answer rate on a quiet
    host."""
    return float(statistics.median(
        rate / log.speed(start, end, wall=True) for rate, start, end in pieces
    ))


def _bundle(wd: WorkDir, spec: ServeSpec):
    """``(path, mismatches, index)``: the served bundle, as verified when
    prepared, and the benchmark's own load of it."""
    from repro.core.index import PLLIndex

    bundle, bad = wd.bundle(spec.graph)
    return bundle, bad, PLLIndex.load(bundle, mmap=True)


def _requests(wd: WorkDir, spec: ServeSpec, seed: int, index: Any) -> Requests:
    _graph, info = wd.graph(spec.graph)
    return Requests(spec, STREAMS[spec.stream](seed, info["n"]), index)


def run(wd: WorkDir, spec: ServeSpec, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced run (see the module docstring)."""
    bundle, bundle_bad, index = _bundle(wd, spec)
    requests = _requests(wd, spec, seed, index)
    with Cores() as cores, SpeedLog(wd.repo, cores.others) as log:
        windows, server = cold_starts(wd, cores, bundle)
        with serving(server, requests) as session:
            pieces = session.probe_pieces(SHARES["probe"] * seconds)
            # The sampler would delay requests at the nominal rate.
            log.stop()
            session.open("warm", spec.nominal_rps, SHARES["warm"] * seconds)
            nominal = session.open(
                "nominal", spec.nominal_rps, SHARES["nominal"] * seconds
            )
            peak_mb = server.peak_mb()
    return {
        "metrics": {
            "setup_s": quiet_setup_s(windows, log),
            "p50_ms": nominal.p50_s * 1e3,
            "throughput": quiet_rate(pieces, log),
            "index_bytes": float(index.store.memory_breakdown()["total_bytes"]),
            "peak_rss_mb": peak_mb,
        },
        "attempted": session.attempted,
        "failed": session.failed + bundle_bad,
        "samples": {
            "cold_starts": [end - start for start, end in windows],
            "probe_rates": [rate for rate, _start, _end in pieces],
            "nominal_requests": nominal.result.attempted,
            "nominal_p99_ms": nominal.p99_s * 1e3,
            "nominal_lag_p99_us": nominal.lag_p99_s * 1e6,
        },
    }


# ----------------------------------------------------------------------
def _query_layer(
    bundle: str, requests: Requests, idx: np.ndarray
) -> Dict[str, float]:
    """The index query path in this process, on the nominal pairs."""
    from repro.core.index import PLLIndex

    loads = []
    for _ in range(3):
        t0 = time.perf_counter()
        index = PLLIndex.load(bundle, mmap=True)
        loads.append(time.perf_counter() - t0)
    pairs = requests.pairs(idx)[:20000]
    scalar = pairs[:5000].tolist()
    t0 = time.perf_counter()
    for s, t in scalar:
        index.distance(s, t)
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    index.distance_batch(pairs)
    batch_s = time.perf_counter() - t0
    return {
        "query.load_s": float(statistics.median(loads)),
        "query.scalar_us": scalar_s / len(scalar) * 1e6,
        "query.batch_us_per_pair": batch_s / len(pairs) * 1e6,
    }


def run_traced(
    wd: WorkDir, spec: ServeSpec, seed: int, seconds: float
) -> Dict[str, Any]:
    """Against a plain server: the probe, the nominal step and the ramp
    that finds ``max_rps``.  Against the traced launcher: the nominal
    step again (same requests).  Then the in-process query layer."""
    bundle, bundle_bad, index = _bundle(wd, spec)
    requests = _requests(wd, spec, seed, index)
    nominal_s = SHARES["nominal"] * seconds
    warm_s = SHARES["warm"] * seconds
    totals_path = wd.path(f"serve-totals-{os.getpid()}.json")
    with Cores() as cores:
        ceiling = measure_ceiling(wd, cores)
        with serving(Server(wd, cores, bundle), requests) as plain:
            probe = plain.probe(TRACED_SHARES["probe"] * seconds)
            capacity = probe.result.answered_rps
            plain.open("warm", spec.nominal_rps, warm_s)
            untraced = plain.open("nominal", spec.nominal_rps, nominal_s)
            lo = spec.nominal_rps
            hi = max(RAMP_TOP * capacity, 1.25 * lo)
            ramp = plain.open(
                "ramp",
                lo,
                TRACED_SHARES["ramp"] * seconds,
                end_rate=hi,
                max_backlog=RAMP_MAX_BACKLOG_S * hi,
            )
        server = Server(wd, cores, bundle, totals_path)
        with serving(server, requests) as traced:
            traced.open("warm", spec.nominal_rps, warm_s)
            nominal = traced.open(
                "nominal", spec.nominal_rps, TRACED_SHARES["traced"] * seconds
            )
            stats = server.call({"op": "stats"})
    try:
        with open(totals_path, "r", encoding="utf-8") as fh:
            totals = json.load(fh)
    finally:
        if os.path.exists(totals_path):
            os.remove(totals_path)

    idx, _due = requests.stream.schedule(
        plain.cursor("nominal"), spec.nominal_rps, nominal_s
    )
    layers = _query_layer(bundle, requests, idx)
    layers.update(server_layers(totals, nominal.p50_s, stats))
    failed = plain.failed + traced.failed + bundle_bad
    attempted = plain.attempted + traced.attempted
    max_rps, marks = knee(ramp, lo, hi, spec.p99_limit_s, ceiling)
    layers.update({
        "max_rps": max_rps,
        "p99_ms": untraced.p99_s * 1e3,
        "error_frac": failed / attempted,
        "gen.lag_p99_us": untraced.lag_p99_s * 1e6,
        "gen.max_outstanding": untraced.result.max_outstanding,
        "gen.capacity_rps": capacity,
        "gen.ceiling_rps": ceiling,
        "trace.overhead_frac": nominal.p50_s / untraced.p50_s - 1.0,
    })
    return {
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "samples": {
            "nominal_requests": untraced.result.attempted,
            "traced_nominal_requests": nominal.result.attempted,
            "ramp_rps": [lo, hi],
            "ramp_windows": marks,
        },
    }


def server_layers(
    totals: Dict[str, Dict[str, float]], client_p50_s: float, stats: Dict[str, Any]
) -> Dict[str, float]:
    """Per-request server time by layer, from the traced launcher."""
    sec, calls = totals["seconds"], totals["calls"]
    requests = calls.get("decode", 0)
    per_req = (lambda s: s / requests * 1e6) if requests else (lambda s: 0.0)
    oracle_calls = calls.get("oracle", 0)
    misses = calls.get("index_distance", 0)
    oracle_s = sec.get("oracle", 0.0) + sec.get("index_distance", 0.0)
    layer_s = oracle_s + sum(
        sec.get(k, 0.0) for k in ("decode", "dispatch", "encode", "obs")
    )
    queries = stats.get("queries", 0)
    return {
        "oracle.us_per_call": oracle_s / oracle_calls * 1e6 if oracle_calls else 0.0,
        "oracle.miss_us": (
            sec.get("index_distance", 0.0) / misses * 1e6 if misses else 0.0
        ),
        "oracle.cache_hit_frac": stats.get("cache_hits", 0) / queries if queries else 0.0,
        "server.decode_us": per_req(sec.get("decode", 0.0)),
        "server.encode_us": per_req(sec.get("encode", 0.0)),
        "server.obs_us": per_req(sec.get("obs", 0.0)),
        "server.layer_us_per_req": per_req(layer_s),
        "server.unattributed_us": client_p50_s * 1e6 - per_req(layer_s),
        "server.requests": requests,
    }
