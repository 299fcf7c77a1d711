"""Tests for the serving layer: oracle and TCP server/client."""

import io
import math
import threading

import pytest

from repro.baselines.dijkstra import dijkstra_sssp
from repro.core.index import PLLIndex
from repro.errors import GraphError, ReproError
from repro.service import DistanceClient, DistanceOracle, DistanceServer


@pytest.fixture(scope="module")
def index(request):
    from repro.generators.random_graphs import gnm_random_graph

    graph = gnm_random_graph(40, 100, seed=7)
    return PLLIndex.build(graph)


class TestOracle:
    def test_distances_exact(self, index):
        oracle = DistanceOracle(index)
        truth = dijkstra_sssp(index.graph, 0)
        for t in range(index.num_vertices):
            assert oracle.distance(0, t) == truth[t]

    def test_cache_hits_symmetric(self, index):
        oracle = DistanceOracle(index)
        a = oracle.distance(1, 5)
        b = oracle.distance(5, 1)  # symmetric key -> cache hit
        assert a == b
        assert oracle.stats.cache_hits == 1
        assert oracle.stats.queries == 2
        assert oracle.stats.hit_rate == 0.5

    def test_cache_eviction(self, index):
        oracle = DistanceOracle(index, cache_size=2)
        oracle.distance(0, 1)
        oracle.distance(0, 2)
        oracle.distance(0, 3)  # evicts (0, 1)
        entries, cap = oracle.cache_info()
        assert entries == 2 and cap == 2
        oracle.distance(0, 1)
        assert oracle.stats.cache_hits == 0

    def test_cache_disabled(self, index):
        oracle = DistanceOracle(index, cache_size=0)
        oracle.distance(0, 1)
        oracle.distance(0, 1)
        assert oracle.stats.cache_hits == 0

    def test_negative_cache_size(self, index):
        with pytest.raises(GraphError):
            DistanceOracle(index, cache_size=-1)

    def test_batch(self, index):
        oracle = DistanceOracle(index)
        pairs = [(0, 1), (2, 3), (4, 5)]
        out = oracle.batch(pairs)
        assert out == [index.distance(s, t) for s, t in pairs]
        assert oracle.stats.batch_queries == 1

    def test_batch_large_vectorized_path(self, index):
        # Cross the batch kernel's scalar-fallback threshold.
        oracle = DistanceOracle(index)
        n = index.num_vertices
        pairs = [(s % n, (3 * s + 1) % n) for s in range(200)]
        out = oracle.batch(pairs)
        assert out == [index.distance(s, t) for s, t in pairs]
        assert oracle.stats.queries == 200

    def test_batch_uses_and_fills_cache(self, index):
        oracle = DistanceOracle(index)
        oracle.distance(0, 1)  # prime the cache
        out = oracle.batch([(0, 1), (1, 0), (2, 3)])
        assert out == [
            index.distance(0, 1),
            index.distance(0, 1),
            index.distance(2, 3),
        ]
        # (0,1) and its symmetric twin hit; (2,3) missed and was cached.
        assert oracle.stats.cache_hits == 2
        second = oracle.batch([(2, 3)])
        assert second == [index.distance(2, 3)]
        assert oracle.stats.cache_hits == 3

    def test_batch_respects_cache_capacity(self, index):
        oracle = DistanceOracle(index, cache_size=2)
        oracle.batch([(0, 1), (0, 2), (0, 3)])
        entries, cap = oracle.cache_info()
        assert entries == 2 and cap == 2

    def test_batch_empty(self, index):
        oracle = DistanceOracle(index)
        assert oracle.batch([]) == []
        assert oracle.stats.batch_queries == 1
        assert oracle.stats.queries == 0

    def test_knn_lazy_build(self, index):
        oracle = DistanceOracle(index)
        out = oracle.k_nearest(3, 4)
        assert len(out) == 4
        truth = dijkstra_sssp(index.graph, 3)
        for v, d in out:
            assert d == truth[v]
        assert oracle.stats.knn_queries == 1

    def test_shortest_path(self, index):
        oracle = DistanceOracle(index)
        path = oracle.shortest_path(0, 7)
        assert path[0] == 0 and path[-1] == 7
        assert oracle.stats.path_queries == 1

    def test_clear_cache(self, index):
        oracle = DistanceOracle(index)
        oracle.distance(0, 1)
        oracle.clear_cache()
        assert oracle.cache_info()[0] == 0

    def test_thread_safety(self, index):
        oracle = DistanceOracle(index, cache_size=64)
        truth = dijkstra_sssp(index.graph, 0)
        errors = []

        def hammer():
            try:
                for t in range(index.num_vertices):
                    assert oracle.distance(0, t) == truth[t]
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors


class TestServer:
    @pytest.fixture()
    def server(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as srv:
            yield srv

    def test_ping(self, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            assert client.ping()

    def test_distance_roundtrip(self, index, server):
        truth = dijkstra_sssp(index.graph, 2)
        with DistanceClient("127.0.0.1", server.port) as client:
            for t in range(0, index.num_vertices, 5):
                assert client.distance(2, t) == truth[t]

    def test_batch_roundtrip(self, index, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            pairs = [(0, 1), (3, 9)]
            out = client.batch(pairs)
            assert out == [index.distance(s, t) for s, t in pairs]

    def test_knn_roundtrip(self, index, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            out = client.k_nearest(1, 3)
            assert len(out) == 3
            truth = dijkstra_sssp(index.graph, 1)
            for v, d in out:
                assert d == truth[v]

    def test_path_roundtrip(self, index, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            path = client.shortest_path(0, 5)
            assert path[0] == 0 and path[-1] == 5

    def test_stats(self, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            client.distance(0, 1)
            stats = client.stats()
            assert stats["queries"] >= 1

    def test_unreachable_encoding(self, two_components, server):
        # Build a dedicated server over a disconnected graph.
        oracle = DistanceOracle(PLLIndex.build(two_components))
        with DistanceServer(oracle) as srv:
            with DistanceClient("127.0.0.1", srv.port) as client:
                assert client.distance(0, 3) == math.inf

    def test_error_response(self, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ReproError):
                client.distance(0, 10_000)  # out of range

    def test_multiple_clients(self, index, server):
        clients = [
            DistanceClient("127.0.0.1", server.port) for _ in range(3)
        ]
        try:
            for i, c in enumerate(clients):
                assert c.distance(i, i + 1) == index.distance(i, i + 1)
        finally:
            for c in clients:
                c.close()

    def test_unknown_op(self, server):
        import json
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "teleport"}\n')
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False
            assert "unknown op" in response["error"]

    def test_malformed_line_counted(self, server):
        import json
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False
            assert "malformed" in response["error"]
            # The connection survives a garbage line.
            f.write(b'{"op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline())["ok"] is True
        assert server.malformed_lines >= 1

    def test_non_object_json_counted_malformed(self, server):
        import json
        import socket

        before = server.malformed_lines
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            f = sock.makefile("rwb")
            f.write(b"[1, 2, 3]\n")
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False
        assert server.malformed_lines == before + 1

    def test_stats_reports_malformed_lines(self, server):
        import json
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            f = sock.makefile("rwb")
            f.write(b"{broken\n")
            f.flush()
            f.readline()
        with DistanceClient("127.0.0.1", server.port) as client:
            stats = client.stats()
            assert stats["malformed_lines"] >= 1

    def test_metrics_op(self, server):
        from repro import obs

        obs.reset()
        with DistanceClient("127.0.0.1", server.port) as client:
            client.distance(0, 1)
            snapshot = client.metrics()
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        requests = by_name["parapll_service_requests_total"]
        distance_series = [
            s
            for s in requests["series"]
            if s["labels"] == {"op": "distance"}
        ]
        assert distance_series and distance_series[0]["value"] >= 1
        # Latency histogram observed the same request.
        latency = by_name["parapll_service_request_seconds"]
        dist_lat = [
            s
            for s in latency["series"]
            if s["labels"] == {"op": "distance"}
        ]
        assert dist_lat and dist_lat[0]["value"]["count"] >= 1
        assert "malformed_lines" in snapshot


class TestRequestIdsAndSlowLog:
    @pytest.fixture()
    def slow_server(self, index):
        """Server whose slow-query threshold trips on every request."""
        from repro import obs

        obs.reset()
        oracle = DistanceOracle(index)
        with DistanceServer(oracle, slow_query_seconds=0.0) as srv:
            yield srv
        obs.reset()

    def test_req_id_on_every_response(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                first = client._call({"op": "ping"})
                second = client._call({"op": "distance", "s": 0, "t": 1})
                assert first["req_id"] == 1
                assert second["req_id"] == 2

    def test_client_id_echoed_alongside_req_id(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                reply = client._call(
                    {"op": "distance", "s": 0, "t": 1, "id": "abc-123"}
                )
                assert reply["id"] == "abc-123"
                assert isinstance(reply["req_id"], int)

    def test_error_responses_carry_req_id(self, index):
        import json
        import socket

        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"op": "nope"}\n')
                f.flush()
                reply = json.loads(f.readline())
        assert reply["ok"] is False
        assert "req_id" in reply

    def test_slow_queries_counted_in_stats(self, slow_server):
        with DistanceClient("127.0.0.1", slow_server.port) as client:
            client.distance(0, 1)
            client.distance(1, 2)
            stats = client.stats()
            assert stats["slow_requests"] >= 2

    def test_slow_query_traced(self, index):
        from repro import obs

        obs.reset()
        obs.configure(tracing=True)
        try:
            oracle = DistanceOracle(index)
            with DistanceServer(oracle, slow_query_seconds=0.0) as server:
                with DistanceClient("127.0.0.1", server.port) as client:
                    client.distance(0, 1)
            names = [e["kind"] for e in obs.get_recorder().snapshot()]
            assert names.count("slow_query") == 1  # recorded once
        finally:
            obs.configure(tracing=False)
            obs.reset()

    def test_threshold_disabled_counts_nothing(self, index):
        from repro import obs

        obs.reset()
        oracle = DistanceOracle(index)
        with DistanceServer(oracle, slow_query_seconds=None) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                client.distance(0, 1)
                stats = client.stats()
                assert stats["slow_requests"] == 0

    def test_negative_threshold_rejected(self, index):
        oracle = DistanceOracle(index)
        with pytest.raises(ReproError):
            DistanceServer(oracle, slow_query_seconds=-1.0)

    def test_stats_latency_quantiles(self, index):
        from repro import obs

        obs.reset()
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                for t in range(1, 5):
                    client.distance(0, t)
                stats = client.stats()
        quantiles = stats["latency_quantiles"]
        assert "distance" in quantiles
        entry = quantiles["distance"]
        assert set(entry) == {"p50", "p95", "p99"}
        assert entry["p50"] <= entry["p95"] <= entry["p99"]


class TestIntrospectionOps:
    @pytest.fixture()
    def server(self, index):
        from repro import obs

        obs.reset()
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as srv:
            yield srv
        obs.reset()

    def test_explain_op_round_trip(self, index, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            doc = client.explain(3, 17)
            assert doc["schema"] == "parapll-explain/1"
            assert doc["s"] == 3 and doc["t"] == 17
            assert doc["distance"] == index.distance(3, 17)
            roles = {c["role"] for c in doc["candidates"]}
            assert "winner" in roles

    def test_explain_op_counts_in_oracle_stats(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as srv:
            with DistanceClient("127.0.0.1", srv.port) as client:
                client.explain(0, 1)
                client.explain(0, 2)
        assert oracle.stats.explain_queries == 2
        # EXPLAIN runs uncached; plain query counters are untouched.
        assert oracle.stats.queries == 0

    def test_explain_unreachable_encoding(self, two_components):
        oracle = DistanceOracle(PLLIndex.build(two_components))
        with DistanceServer(oracle) as srv:
            with DistanceClient("127.0.0.1", srv.port) as client:
                doc = client.explain(0, 3)
        assert doc["distance"] == "inf"
        assert doc["reachable"] is False

    def test_status_op_fields(self, index, server):
        with DistanceClient("127.0.0.1", server.port) as client:
            client.distance(0, 1)
            status = client.status()
        assert status["uptime_seconds"] >= 0.0
        assert status["index"]["vertices"] == index.num_vertices
        assert status["index"]["entries"] > 0
        assert status["index"]["avg_label_size"] > 0
        # The status request itself is counted while being served.
        assert status["in_flight"] >= 1
        assert status["queries"] >= 1
        assert status["malformed_lines"] == 0
        assert "latency_quantiles" in status
        assert isinstance(status["flightrec"], list)

    def test_debug_op_returns_flightrec_tail(self, server):
        from repro.obs import flightrec

        flightrec.get_recorder().clear()
        flightrec.record("marker_one", n=1)
        flightrec.record("marker_two", n=2)
        with DistanceClient("127.0.0.1", server.port) as client:
            doc = client.debug()
            assert doc["schema"] == "parapll-flightrec/1"
            kinds = [e["kind"] for e in doc["flightrec"]]
            assert "marker_one" in kinds and "marker_two" in kinds
            newest = client.debug(last=1)["flightrec"]
            assert len(newest) == 1
            assert newest[0]["kind"] == "marker_two"


class TestBatchLatencyAndDeadline:
    def test_batch_records_per_pair_latency(self, index):
        from repro import obs

        obs.reset()
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                client.batch([(0, 1), (2, 3), (4, 5)])
        snapshot = obs.get_registry().snapshot()
        by_name = {m["name"]: m for m in snapshot}
        latency = by_name["parapll_service_request_seconds"]
        batch_lat = [
            s for s in latency["series"] if s["labels"] == {"op": "batch"}
        ]
        # One histogram sample per pair, not one per request.
        assert batch_lat and batch_lat[0]["value"]["count"] == 3
        requests = by_name["parapll_service_requests_total"]
        batch_req = [
            s for s in requests["series"] if s["labels"] == {"op": "batch"}
        ]
        assert batch_req and batch_req[0]["value"] == 1

    def test_batch_deadline_aborts_with_partial_results(self, index):
        import json as _json
        import socket

        oracle = DistanceOracle(index)
        with DistanceServer(oracle, slow_query_seconds=0.0) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as sock:
                f = sock.makefile("rwb")
                req = {"op": "batch", "pairs": [[0, 1], [2, 3], [4, 5]]}
                f.write(_json.dumps(req).encode() + b"\n")
                f.flush()
                reply = _json.loads(f.readline())
        assert reply["ok"] is False
        # At least the first pair is always served.
        assert reply["completed"] == 1
        assert len(reply["distances"]) == 1
        assert "slow_query_seconds" in reply["error"]

    def test_batch_deadline_raises_client_side(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle, slow_query_seconds=0.0) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ReproError):
                    client.batch([(0, 1), (2, 3)])

    def test_no_deadline_serves_whole_batch(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle, slow_query_seconds=None) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                out = client.batch([(0, 1), (2, 3), (4, 5)])
        assert len(out) == 3


class TestConcurrentIntrospection:
    def test_hammer_status_ops_during_batches(self, index):
        """Introspection ops stay consistent while batches are in
        flight: every connection sees strictly increasing req_ids and
        nothing is miscounted as malformed."""
        from repro import obs

        obs.reset()
        oracle = DistanceOracle(index)
        n = index.num_vertices
        pairs = [(i % n, (i * 7 + 1) % n) for i in range(50)]
        errors = []

        with DistanceServer(oracle) as server:

            def batch_worker():
                try:
                    with DistanceClient("127.0.0.1", server.port) as c:
                        for _ in range(5):
                            c.batch(pairs)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            def introspect_worker():
                try:
                    with DistanceClient("127.0.0.1", server.port) as c:
                        req_ids = []
                        for _ in range(10):
                            req_ids.append(
                                c._call({"op": "status"})["req_id"]
                            )
                            c.stats()
                            c.metrics()
                        assert req_ids == sorted(req_ids)
                        assert len(set(req_ids)) == len(req_ids)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            workers = [
                threading.Thread(target=batch_worker) for _ in range(2)
            ] + [
                threading.Thread(target=introspect_worker)
                for _ in range(3)
            ]
            for th in workers:
                th.start()
            for th in workers:
                th.join()

            assert not errors
            with DistanceClient("127.0.0.1", server.port) as client:
                status = client.status()
        assert status["malformed_lines"] == 0
        obs.reset()


class TestErrorPaths:
    """Server/oracle failure modes: bad ids, eviction order, retries."""

    def test_distance_out_of_range_vertex(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ReproError) as excinfo:
                    client.distance(0, index.num_vertices + 5)
        assert "req_id=" in str(excinfo.value)

    def test_batch_out_of_range_vertex(self, index):
        oracle = DistanceOracle(index)
        with DistanceServer(oracle) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ReproError):
                    client.batch([(0, 1), (0, index.num_vertices)])
                # The connection survives the refused request.
                assert client.ping()

    def test_lru_eviction_order_interleaved(self, index):
        """Point and batch traffic share one LRU, strict recency order."""
        oracle = DistanceOracle(index, cache_size=2)
        oracle.distance(0, 1)  # cache: [(0,1)]
        oracle.batch([(0, 2)])  # cache: [(0,1), (0,2)]
        oracle.distance(1, 0)  # symmetric hit refreshes (0,1)
        assert oracle.stats.cache_hits == 1
        oracle.batch([(0, 3)])  # full: evicts (0,2), keeps hot (0,1)
        hits_before = oracle.stats.cache_hits
        oracle.distance(0, 1)  # survived
        assert oracle.stats.cache_hits == hits_before + 1
        oracle.distance(0, 2)  # evicted -> miss
        assert oracle.stats.cache_hits == hits_before + 1
        entries, cap = oracle.cache_info()
        assert entries == 2 and cap == 2

    def test_client_fail_fast_without_retries(self):
        import socket as _socket

        # A bound-but-unlistened port refuses connections immediately.
        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ReproError) as excinfo:
            DistanceClient("127.0.0.1", port, connect_retries=0)
        assert "after 1 attempt(s)" in str(excinfo.value)

    def test_client_retries_until_server_appears(self, index):
        import socket as _socket

        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        oracle = DistanceOracle(index)
        holder = {}

        def late_start():
            import time as _time

            _time.sleep(0.15)
            holder["server"] = DistanceServer(
                oracle, port=port
            ).start()

        starter = threading.Thread(target=late_start)
        starter.start()
        try:
            client = DistanceClient(
                "127.0.0.1",
                port,
                connect_retries=8,
                retry_backoff=0.05,
            )
            try:
                assert client.ping()
            finally:
                client.close()
        finally:
            starter.join()
            holder["server"].stop()

    def test_client_rejects_bad_retry_config(self):
        with pytest.raises(ReproError):
            DistanceClient("127.0.0.1", 1, connect_retries=-1)


class TestSLOServing:
    """The health op, windowed stats and burn-rate load shedding."""

    @pytest.fixture()
    def slo_server(self, index):
        from repro.obs.slo import SLOTracker

        oracle = DistanceOracle(index)
        with DistanceServer(oracle, slo_tracker=SLOTracker()) as srv:
            yield srv

    def test_health_reports_targets_and_burn(self, slo_server):
        with DistanceClient("127.0.0.1", slo_server.port) as client:
            for t in range(1, 8):
                client.distance(0, t)
            health = client.health()
        slo = health["slo"]
        assert slo["schema"] == "parapll-slo/1"
        names = {t["name"] for t in slo["targets"]}
        assert names == {"latency_p99_50ms", "availability"}
        for target in slo["targets"]:
            assert target["burn_rate"] == 0.0
            assert not target["breached"]
        assert slo["breached"] == []
        assert slo["requests_total"] >= 7
        assert health["shedding"]["burn_rate_threshold"] is None
        assert health["shedding"]["active"] is False
        assert health["shedding"]["shed_requests"] == 0

    def test_stats_windowed_quantiles(self, slo_server):
        with DistanceClient("127.0.0.1", slo_server.port) as client:
            for t in range(1, 6):
                client.distance(0, t)
            stats = client.stats()
        windowed = stats["windowed_latency_quantiles"]
        assert "10s" in windowed
        assert set(windowed["10s"]) == {"p50", "p95", "p99"}
        assert windowed["10s"]["p50"] >= 0.0

    def test_introspection_excluded_from_slo(self, slo_server):
        with DistanceClient("127.0.0.1", slo_server.port) as client:
            client.distance(0, 1)
            client.stats()
            client.metrics()
            client.status()
            health = client.health()
        # Only ping/distance/... feed the windows, not stats/metrics.
        assert health["slo"]["requests_total"] == 1

    def test_shedding_fast_fails_point_and_batch(self, index):
        from repro import obs
        from repro.obs.slo import SLOTarget, SLOTracker

        obs.reset()
        tracker = SLOTracker(
            targets=(
                SLOTarget(
                    name="strict",
                    kind="latency",
                    objective=0.9,
                    threshold_seconds=1e-9,
                    window_seconds=60,
                ),
            )
        )
        for _ in range(20):
            tracker.record(0.01)  # burn: 1.0 / 0.1 budget = 10x
        oracle = DistanceOracle(index)
        with DistanceServer(
            oracle, slo_tracker=tracker, shed_burn_rate=1.0
        ) as server:
            with DistanceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ReproError) as excinfo:
                    client.distance(0, 1)
                assert "shed" in str(excinfo.value)
                with pytest.raises(ReproError):
                    client.batch([(0, 1)])
                # Introspection keeps flowing under overload.
                assert client.ping()
                health = client.health()
                stats = client.stats()
            assert server.shed_count == 2
        assert health["shedding"]["active"] is True
        assert health["shedding"]["shed_requests"] >= 1
        # The oracle never saw the shed requests.
        assert stats["queries"] == 0
        obs.reset()

    def test_shed_requests_logged_to_qlog(self, index):
        from repro import obs
        from repro.obs.qlog import QueryLogRecorder, read_qlog, recording
        from repro.obs.slo import SLOTarget, SLOTracker

        obs.reset()
        tracker = SLOTracker(
            targets=(
                SLOTarget(
                    name="strict",
                    kind="latency",
                    objective=0.9,
                    threshold_seconds=1e-9,
                    window_seconds=60,
                ),
            )
        )
        for _ in range(20):
            tracker.record(0.01)
        oracle = DistanceOracle(index)
        sink = io.StringIO()
        with recording(QueryLogRecorder(sample=1.0, sink=sink)):
            with DistanceServer(
                oracle, slo_tracker=tracker, shed_burn_rate=1.0
            ) as server:
                with DistanceClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ReproError):
                        client.distance(3, 4)
        records = read_qlog(sink.getvalue().splitlines())
        assert len(records) == 1
        assert records[0]["outcome"] == "shed"
        assert records[0]["s"] == 3 and records[0]["t"] == 4
        assert records[0]["req_id"] is not None
        obs.reset()

    def test_shed_rejects_bad_threshold(self, index):
        with pytest.raises(ReproError):
            DistanceServer(DistanceOracle(index), shed_burn_rate=0.0)

    def test_server_qlog_records_carry_req_id(self, index):
        from repro.obs.qlog import QueryLogRecorder, read_qlog, recording

        oracle = DistanceOracle(index)
        sink = io.StringIO()
        with recording(QueryLogRecorder(sample=1.0, sink=sink)):
            with DistanceServer(oracle) as server:
                with DistanceClient("127.0.0.1", server.port) as client:
                    client.distance(0, 5)
                    client.batch([(1, 2), (3, 4)])
        records = read_qlog(sink.getvalue().splitlines())
        assert len(records) == 3
        assert all(r["req_id"] is not None for r in records)
        # Both batch pairs share their request's id.
        assert records[1]["req_id"] == records[2]["req_id"]
