"""Line-delimited-JSON TCP serving of a distance oracle.

Protocol: one JSON object per line in each direction.

Requests::

    {"op": "distance", "s": 3, "t": 42}
    {"op": "batch", "pairs": [[0, 1], [2, 3]]}
    {"op": "knn", "s": 3, "k": 5}
    {"op": "path", "s": 3, "t": 42}
    {"op": "explain", "s": 3, "t": 42}
    {"op": "stats"}
    {"op": "status"}
    {"op": "health"}
    {"op": "audit"}
    {"op": "debug"}
    {"op": "metrics"}
    {"op": "ping"}

Responses carry ``{"ok": true, ...result fields}`` or
``{"ok": false, "error": "..."}``.  Unreachable distances are encoded
as the string ``"inf"`` (JSON has no infinity).

Every response carries a server-assigned ``req_id`` (monotonically
increasing per server) so a log line, a traced event and a client
response can be correlated; a client-supplied ``id`` field is echoed
back verbatim as well.

Every request is counted into the observability registry
(``parapll_service_requests_total{op=...}`` plus a latency histogram);
``{"op": "metrics"}`` returns the full registry snapshot so any client
can scrape a live server.  Requests slower than the configurable
``slow_query_seconds`` threshold are logged (logger ``repro.service``),
counted (``parapll_service_slow_requests_total``) and recorded as a
``slow_query`` flight-recorder event.  Lines that fail JSON
decoding are counted and logged instead of silently answered.

A ``batch`` request is one :meth:`DistanceOracle.batch` call: one LRU
pass, then one compiled join call for all misses.  ``slow_query_seconds``
is its deadline: the first pair is always served, the rest go in chunks
with the deadline checked between them, and an aborted batch answers
``ok: false`` with ``completed`` and the partial ``distances``.  The
latency histogram gets one sample per pair (the batch's time divided by
its pairs), and each pair is query-logged with ``op="batch"``.

Every accepted connection has ``TCP_NODELAY`` set, so a reply leaves at
once instead of waiting for the client's next request to carry the
ACK.  A client that resets or closes its connection while a request is
read or answered ends its handler cleanly: it is counted in
``parapll_service_disconnects_total``, logged in one line and recorded
as a ``client_disconnect`` flight event, with no traceback.

The server is a stdlib ``ThreadingTCPServer``; one thread per
connection, the oracle itself is thread-safe.  Intended for trusted
local/internal callers (no authentication), like any sidecar cache.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import socket
import socketserver
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.check import hooks as _check_hooks
from repro.errors import ReproError
from repro.obs import flightrec as _flightrec
from repro.obs import qlog as _qlog
from repro.obs import slo as _slo
from repro.obs.instruments import (
    SERVICE_DISCONNECTS,
    SERVICE_LATENCY,
    SERVICE_MALFORMED,
    record_batch_pairs,
    record_request,
    record_shed,
    record_slow_request,
)
from repro.obs.metrics import DEFAULT_QUANTILES, get_registry
from repro.service.oracle import DistanceOracle

__all__ = ["DistanceServer", "DistanceClient"]

logger = logging.getLogger("repro.service")

#: Ops whose latency/outcome feed the sliding-window SLO tracker.
#: Introspection ops (stats/metrics/audit/...) are deliberately
#: excluded: an expensive on-demand audit is not a serving failure.
SLO_OPS = frozenset({"ping", "distance", "batch", "knn", "path", "explain"})

#: Ops the load shedder may fast-fail when the burn rate is critical.
#: Everything else keeps flowing so operators can still introspect an
#: overloaded server.
SHEDDABLE_OPS = frozenset({"distance", "batch"})


def _encode(value: float) -> Any:
    return "inf" if value == math.inf else value


class _Handler(socketserver.StreamRequestHandler):
    # TCP_NODELAY on every accepted connection: with Nagle on, a reply
    # waits for the client's next request to carry the previous ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:  # pragma: no cover - exercised via client
        try:
            self._serve_lines()
        except ConnectionError as exc:
            # The client reset or closed the connection while a read or
            # a reply was in flight: count it and end this handler
            # instead of letting socketserver print a traceback.
            self.server.count_disconnect()  # type: ignore[attr-defined]
            peer = "%s:%s" % tuple(self.client_address[:2])
            logger.warning("client %s disconnected: %r", peer, exc)
            _flightrec.record(
                "client_disconnect", peer=peer, error=type(exc).__name__
            )

    def _serve_lines(self) -> None:  # pragma: no cover - via handle
        server = self.server
        oracle: DistanceOracle = server.oracle  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            req_id = server.next_request_id()  # type: ignore[attr-defined]
            try:
                req = json.loads(line)
            except ValueError as exc:
                server.count_malformed()  # type: ignore[attr-defined]
                logger.warning(
                    "malformed request line (%s): %r", exc, line[:200]
                )
                response = {"ok": False, "error": f"malformed json: {exc}"}
                self._reply(response, req_id)
                continue
            if not isinstance(req, dict):
                server.count_malformed()  # type: ignore[attr-defined]
                logger.warning(
                    "request line is not a JSON object: %r", line[:200]
                )
                self._reply(
                    {"ok": False, "error": "request must be a JSON object"},
                    req_id,
                )
                continue
            t0 = time.perf_counter()
            op = req.get("op")
            shed = op in SHEDDABLE_OPS and server.should_shed()  # type: ignore[attr-defined]
            if shed:
                response = _shed_response(op, req, server, req_id)
            else:
                server.enter_request()  # type: ignore[attr-defined]
                try:
                    with _qlog.request_scope(req_id):
                        response = _dispatch(oracle, req, server)
                except ReproError as exc:
                    response = {"ok": False, "error": str(exc)}
                except (ValueError, KeyError, TypeError) as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                finally:
                    server.exit_request()  # type: ignore[attr-defined]
            elapsed = time.perf_counter() - t0
            # The batch op observes per-pair latencies itself; one
            # whole-request sample would skew the histogram.
            record_request(
                op,
                elapsed,
                bool(response.get("ok")),
                include_latency=(op != "batch"),
            )
            # Shed fast-fails are excluded from the SLO windows: if they
            # counted as errors, shedding would keep its own burn rate
            # above threshold and never disengage.
            if not shed and op in SLO_OPS:
                server.slo_tracker.record(  # type: ignore[attr-defined]
                    elapsed, ok=bool(response.get("ok"))
                )
            threshold = server.slow_query_seconds  # type: ignore[attr-defined]
            if threshold is not None and elapsed >= threshold:
                record_slow_request(op)
                logger.warning(
                    "slow query req_id=%d op=%r took %.4fs "
                    "(threshold %.4fs)",
                    req_id,
                    op,
                    elapsed,
                    threshold,
                )
                _flightrec.record(
                    "slow_query", op=op, req_id=req_id, seconds=elapsed
                )
            if "id" in req:
                response["id"] = req["id"]
            self._reply(response, req_id)

    def _reply(
        self, response: Dict[str, Any], req_id: Optional[int] = None
    ) -> None:  # pragma: no cover
        if req_id is not None:
            response.setdefault("req_id", req_id)
        self.wfile.write(json.dumps(response).encode() + b"\n")
        self.wfile.flush()


def _latency_quantiles() -> Dict[str, Dict[str, float]]:
    """p50/p95/p99 per served op, from the live latency histogram."""
    out: Dict[str, Dict[str, float]] = {}
    for key, series in SERVICE_LATENCY.series_items():
        snap = series.value()  # type: ignore[attr-defined]
        if not snap["count"]:
            continue
        op = key[0] if key else "?"
        out[op] = {
            f"p{int(q * 100)}": series.quantile(q)  # type: ignore[attr-defined]
            for q in DEFAULT_QUANTILES
        }
    return out


def _shed_response(
    op: str, req: Dict[str, Any], server: Any, req_id: int
) -> Dict[str, Any]:
    """Fast-fail one sheddable request without touching the oracle.

    The refusal is recorded everywhere an operator would look — shed
    counter, flight recorder, and (for well-formed requests) the query
    log with ``outcome="shed"`` — but deliberately *not* into the SLO
    windows (see the caller).
    """
    record_shed(op)
    server.count_shed()
    burn = server.slo_tracker.worst_burn_rate()
    _flightrec.record(
        "request_shed", op=op, req_id=req_id, burn_rate=round(burn, 3)
    )
    try:
        if op == "distance":
            _qlog.record_query(
                "distance",
                int(req["s"]),
                int(req["t"]),
                0.0,
                outcome="shed",
                req_id=req_id,
            )
        elif op == "batch":
            for a, b in req["pairs"]:
                _qlog.record_query(
                    "batch",
                    int(a),
                    int(b),
                    0.0,
                    outcome="shed",
                    req_id=req_id,
                )
    except (KeyError, ValueError, TypeError):
        # A malformed shed request gets no qlog records; the shed
        # response below already tells the client what happened.
        pass
    return {
        "ok": False,
        "error": (
            f"{op} shed: SLO burn rate {burn:.2f} over threshold "
            f"{server.shed_burn_rate}"
        ),
        "shed": True,
    }


def _slow_request_total() -> int:
    from repro.obs.instruments import SERVICE_SLOW

    return int(
        sum(
            series.value()  # type: ignore[attr-defined]
            for _key, series in SERVICE_SLOW.series_items()
        )
    )


def _dispatch(
    oracle: DistanceOracle, req: Dict[str, Any], server: Any = None
) -> Dict[str, Any]:
    op = req.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "distance":
        d = oracle.distance(int(req["s"]), int(req["t"]))
        return {"ok": True, "distance": _encode(d)}
    if op == "batch":
        return _dispatch_batch(oracle, req["pairs"], server)
    if op == "knn":
        out = oracle.k_nearest(int(req["s"]), int(req["k"]))
        return {"ok": True, "neighbors": [[v, d] for v, d in out]}
    if op == "path":
        path = oracle.shortest_path(int(req["s"]), int(req["t"]))
        return {"ok": True, "path": path}
    if op == "explain":
        explanation = oracle.explain(int(req["s"]), int(req["t"]))
        return {"ok": True, "explain": explanation.to_dict()}
    if op == "stats":
        s = oracle.stats
        tracker = (
            server.slo_tracker if server is not None else _slo.get_tracker()
        )
        return {
            "ok": True,
            "queries": s.queries,
            "cache_hits": s.cache_hits,
            "hit_rate": s.hit_rate,
            "knn_queries": s.knn_queries,
            "malformed_lines": (
                server.malformed_count if server is not None else 0
            ),
            "slow_requests": _slow_request_total(),
            "latency_quantiles": _latency_quantiles(),
            "windowed_latency_quantiles": tracker.windowed_quantiles(),
        }
    if op == "health":
        tracker = (
            server.slo_tracker if server is not None else _slo.get_tracker()
        )
        status = tracker.status()
        shed_threshold = (
            server.shed_burn_rate if server is not None else None
        )
        return {
            "ok": True,
            "schema": _slo.SLO_SCHEMA,
            "slo": status,
            "shedding": {
                "burn_rate_threshold": shed_threshold,
                "active": (
                    shed_threshold is not None
                    and status["worst_burn_rate"] > shed_threshold
                ),
                "shed_requests": (
                    server.shed_count if server is not None else 0
                ),
            },
        }
    if op == "status":
        store = oracle.index.store
        return {
            "ok": True,
            "uptime_seconds": (
                time.monotonic() - server.start_monotonic
                if server is not None
                else 0.0
            ),
            "index": {
                "vertices": oracle.num_vertices,
                "entries": int(store.total_entries),
                "avg_label_size": float(store.avg_label_size),
            },
            "in_flight": server.inflight() if server is not None else 0,
            "queries": oracle.stats.queries,
            "slow_requests": _slow_request_total(),
            "malformed_lines": (
                server.malformed_count if server is not None else 0
            ),
            "latency_quantiles": _latency_quantiles(),
            "flightrec": _flightrec.get_recorder().snapshot(last=5),
        }
    if op == "debug":
        last = req.get("last")
        return {
            "ok": True,
            "schema": _flightrec.FLIGHTREC_SCHEMA,
            "flightrec": _flightrec.get_recorder().snapshot(
                last=int(last) if last is not None else None
            ),
        }
    if op == "metrics":
        return {
            "ok": True,
            "metrics": get_registry().snapshot(),
            "malformed_lines": (
                server.malformed_count if server is not None else 0
            ),
        }
    if op == "audit":
        from repro.obs.audit import AUDIT_SCHEMA, audit_index

        report = audit_index(
            oracle.index,
            check_dominated=bool(req.get("dominated", True)),
            source="server",
        )
        return {"ok": True, "schema": AUDIT_SCHEMA, "audit": report}
    return {"ok": False, "error": f"unknown op {op!r}"}


def _dispatch_batch(
    oracle: DistanceOracle, pairs: Any, server: Any = None
) -> Dict[str, Any]:
    """Serve one batch request through :meth:`DistanceOracle.batch`.

    The server's ``slow_query_seconds`` is the oracle's time budget:
    the first pair is always served, and once the budget is spent at a
    chunk boundary the remaining pairs are aborted.  The response then
    carries ``ok=false``, the partial ``distances``, and ``completed``
    so the client can resume.  The latency histogram gets one sample
    per served pair, each the batch's time divided by its pairs (one
    whole-request sample would hide the pair count).
    """
    budget = server.slow_query_seconds if server is not None else None
    t0 = time.perf_counter()
    served = oracle.batch(pairs, budget=budget)
    done = len(served)
    if done:
        record_batch_pairs((time.perf_counter() - t0) / done, done)
    distances = [_encode(d) for d in served]
    if done < len(pairs):
        return {
            "ok": False,
            "error": (
                f"batch aborted after {done}/{len(pairs)} pairs: "
                f"exceeded slow_query_seconds={budget}"
            ),
            "completed": done,
            "distances": distances,
        }
    return {"ok": True, "distances": distances}


class _TCPServer(socketserver.ThreadingTCPServer):
    """ThreadingTCPServer with request ids and a malformed-line count."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.malformed_count = 0
        self._malformed_lock = _check_hooks.make_lock(
            "server._malformed_lock"
        )
        self._request_ids = itertools.count(1)
        self.slow_query_seconds: Optional[float] = None
        self.start_monotonic = time.monotonic()
        self._inflight = 0
        self._inflight_lock = _check_hooks.make_lock(
            "server._inflight_lock"
        )
        self.slo_tracker: _slo.SLOTracker = _slo.get_tracker()
        self.shed_burn_rate: Optional[float] = None
        self.shed_count = 0
        self._shed_lock = _check_hooks.make_lock("server._shed_lock")
        self.disconnect_count = 0
        self._disconnect_lock = _check_hooks.make_lock(
            "server._disconnect_lock"
        )

    def should_shed(self) -> bool:
        """Whether the load shedder is currently engaged."""
        threshold = self.shed_burn_rate
        return threshold is not None and self.slo_tracker.should_shed(
            threshold
        )

    def count_shed(self) -> None:
        """Record one fast-failed request (thread-safe)."""
        with self._shed_lock:
            self.shed_count += 1

    def count_disconnect(self) -> None:
        """Record one connection the client dropped (thread-safe)."""
        with self._disconnect_lock:
            self.disconnect_count += 1
        SERVICE_DISCONNECTS.inc()

    def next_request_id(self) -> int:
        """A server-unique id for one incoming request line."""
        # itertools.count.__next__ is atomic under the GIL.
        return next(self._request_ids)

    def count_malformed(self) -> None:
        """Record one undecodable request line (thread-safe)."""
        with self._malformed_lock:
            self.malformed_count += 1
        SERVICE_MALFORMED.inc()

    def enter_request(self) -> None:
        """Mark one request as being dispatched (for ``status``)."""
        with self._inflight_lock:
            self._inflight += 1

    def exit_request(self) -> None:
        """Mark one dispatched request as finished."""
        with self._inflight_lock:
            self._inflight -= 1

    def inflight(self) -> int:
        """Requests currently inside ``_dispatch`` (including self)."""
        with self._inflight_lock:
            return self._inflight


class DistanceServer:
    """A threaded TCP server around a :class:`DistanceOracle`.

    Args:
        oracle: the oracle to serve.
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
        slow_query_seconds: requests taking at least this long are
            logged, counted and (when tracing is on) recorded as
            ``slow_query`` trace events; ``None`` disables the check.
        slo_tracker: the sliding-window SLO tracker to record serving
            latencies into; defaults to the process-wide tracker
            (:func:`repro.obs.slo.get_tracker`).
        shed_burn_rate: when set, point/batch requests are fast-failed
            (``ok=false`` with ``shed=true``) while any SLO target's
            burn rate exceeds this multiple — introspection ops keep
            flowing.  ``None`` (default) disables load shedding.

    Use as a context manager::

        with DistanceServer(oracle) as server:
            client = DistanceClient("127.0.0.1", server.port)
            ...
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        host: str = "127.0.0.1",
        port: int = 0,
        slow_query_seconds: Optional[float] = 0.5,
        slo_tracker: Optional[_slo.SLOTracker] = None,
        shed_burn_rate: Optional[float] = None,
    ) -> None:
        if slow_query_seconds is not None and slow_query_seconds < 0:
            raise ReproError("slow_query_seconds must be non-negative")
        if shed_burn_rate is not None and shed_burn_rate <= 0:
            raise ReproError("shed_burn_rate must be positive")
        self._tcp = _TCPServer(
            (host, port), _Handler, bind_and_activate=True
        )
        self._tcp.daemon_threads = True
        self._tcp.oracle = oracle  # type: ignore[attr-defined]
        self._tcp.slow_query_seconds = slow_query_seconds
        if slo_tracker is not None:
            self._tcp.slo_tracker = slo_tracker
        self._tcp.shed_burn_rate = shed_burn_rate
        self._thread: Optional[threading.Thread] = None

    @property
    def slo_tracker(self) -> _slo.SLOTracker:
        """The SLO tracker this server records into."""
        return self._tcp.slo_tracker

    @property
    def shed_count(self) -> int:
        """Requests fast-failed by the load shedder since startup."""
        return self._tcp.shed_count

    @property
    def disconnects(self) -> int:
        """Connections the client dropped mid-request since startup."""
        return self._tcp.disconnect_count

    @property
    def port(self) -> int:
        """The bound port."""
        return self._tcp.server_address[1]

    @property
    def malformed_lines(self) -> int:
        """Request lines that failed JSON decoding since startup."""
        return self._tcp.malformed_count

    def start(self) -> "DistanceServer":
        """Start serving on a background thread; returns self."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket."""
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "DistanceServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class DistanceClient:
    """Blocking client for :class:`DistanceServer`.

    Connecting retries transient failures (server still binding, socket
    backlog full) with exponential backoff plus deterministic jitter
    seeded from the endpoint, so a replay driver launching hundreds of
    clients does not stampede a just-started server.

    Args:
        host: server address.
        port: server port.
        timeout: socket timeout, seconds.
        connect_retries: additional connection attempts after the first
            failure (0 restores the old fail-fast behaviour).
        retry_backoff: base sleep before retry *k* — the actual sleep is
            ``retry_backoff * 2**k`` plus up to 50% jitter.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        connect_retries: int = 3,
        retry_backoff: float = 0.05,
    ) -> None:
        if connect_retries < 0:
            raise ReproError("connect_retries must be non-negative")
        if retry_backoff < 0:
            raise ReproError("retry_backoff must be non-negative")
        import random

        rng = random.Random((hash(host) << 16) ^ port)
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as exc:
                if attempt >= connect_retries:
                    raise ReproError(
                        f"could not connect to {host}:{port} after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                sleep = retry_backoff * (2**attempt)
                sleep += sleep * 0.5 * rng.random()
                logger.debug(
                    "connect to %s:%d failed (%s); retry %d/%d in %.3fs",
                    host,
                    port,
                    exc,
                    attempt + 1,
                    connect_retries,
                    sleep,
                )
                time.sleep(sleep)
                attempt += 1
        self._file = self._sock.makefile("rwb")

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._file.write(json.dumps(request).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ReproError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            message = response.get("error", "unknown server error")
            req_id = response.get("req_id")
            if req_id is not None:
                message = f"{message} (req_id={req_id})"
            raise ReproError(message)
        return response

    def ping(self) -> bool:
        """Liveness check."""
        return bool(self._call({"op": "ping"}).get("pong"))

    def distance(self, s: int, t: int) -> float:
        """Exact distance (``math.inf`` when unreachable)."""
        d = self._call({"op": "distance", "s": s, "t": t})["distance"]
        return math.inf if d == "inf" else float(d)

    def batch(self, pairs: List[Tuple[int, int]]) -> List[float]:
        """Distances for many pairs."""
        out = self._call({"op": "batch", "pairs": [list(p) for p in pairs]})
        return [
            math.inf if d == "inf" else float(d) for d in out["distances"]
        ]

    def k_nearest(self, s: int, k: int) -> List[Tuple[int, float]]:
        """The k nearest vertices to *s*."""
        out = self._call({"op": "knn", "s": s, "k": k})
        return [(int(v), float(d)) for v, d in out["neighbors"]]

    def shortest_path(self, s: int, t: int) -> Optional[List[int]]:
        """One shortest path, or ``None`` when unreachable."""
        return self._call({"op": "path", "s": s, "t": t})["path"]

    def explain(self, s: int, t: int) -> Dict[str, Any]:
        """Server-side EXPLAIN of one query.

        Returns:
            The ``parapll-explain/1`` document (see
            :mod:`repro.obs.explain`).
        """
        return self._call({"op": "explain", "s": s, "t": t})["explain"]

    def status(self) -> Dict[str, Any]:
        """Live server introspection: uptime, index shape, in-flight
        and slow/malformed counts, latency quantiles, and the flight
        recorder's most recent events."""
        out = self._call({"op": "status"})
        out.pop("ok", None)
        return out

    def debug(self, last: Optional[int] = None) -> Dict[str, Any]:
        """The server's flight-recorder buffer (newest *last* events,
        or the whole ring when *last* is ``None``)."""
        req: Dict[str, Any] = {"op": "debug"}
        if last is not None:
            req["last"] = last
        out = self._call(req)
        out.pop("ok", None)
        return out

    def stats(self) -> Dict[str, Any]:
        """Server-side request counters."""
        out = self._call({"op": "stats"})
        out.pop("ok", None)
        return out

    def health(self) -> Dict[str, Any]:
        """The server's SLO health document.

        Returns:
            dict with ``slo`` (the ``parapll-slo/1`` status: per-target
            burn rates, error budgets, breaches, windowed latency
            quantiles) and ``shedding`` (threshold, whether the shedder
            is engaged, requests fast-failed so far).
        """
        out = self._call({"op": "health"})
        out.pop("ok", None)
        return out

    def audit(self, dominated: bool = True) -> Dict[str, Any]:
        """Server-side index-health audit.

        Args:
            dominated: run the dominated-entry scan (pass ``False`` to
                skip the O(entries × avg-label) pass on large indexes).

        Returns:
            The ``parapll-audit/1`` report (see :mod:`repro.obs.audit`).
        """
        return self._call({"op": "audit", "dominated": dominated})["audit"]

    def metrics(self) -> Dict[str, Any]:
        """The server's full observability snapshot.

        Returns:
            dict with ``metrics`` (the registry snapshot, a list of
            metric dicts) and ``malformed_lines``.
        """
        out = self._call({"op": "metrics"})
        out.pop("ok", None)
        return out

    def close(self) -> None:
        """Close the connection."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "DistanceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
