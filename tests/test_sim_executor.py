"""Tests for the discrete-event intra-node simulator."""

import pytest

from repro import obs
from repro.baselines.dijkstra import dijkstra_sssp
from repro.core.serial import build_serial
from repro.errors import SimulationError
from repro.sim.executor import IntraNodeSimulator, simulate_intra_node


def _sim_root_searches(graph, p):
    """The ``root_search`` events (simulated clock) of one traced build."""
    obs.configure(tracing=True)
    obs.get_recorder().clear()
    try:
        simulate_intra_node(graph, p)
    finally:
        obs.configure(tracing=False)
    return [
        e["attrs"] for e in obs.get_recorder().snapshot()
        if e["kind"] == "root_search" and e["attrs"]["clock"] == "sim"
    ]


class TestSerialEquivalence:
    def test_one_worker_matches_serial_store(self, random_graph):
        """p=1 completion-visibility is exactly the serial algorithm."""
        index, _run = simulate_intra_node(random_graph, 1)
        serial_store, _ = build_serial(random_graph)
        assert index.store == serial_store

    def test_one_worker_immediate_matches_too(self, random_graph):
        index, _run = simulate_intra_node(
            random_graph, 1, visibility="immediate"
        )
        serial_store, _ = build_serial(random_graph)
        assert index.store == serial_store


class TestCorrectness:
    @pytest.mark.parametrize("policy", ["static", "dynamic"])
    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_exact_queries_any_schedule(self, random_graph, policy, p):
        index, _run = simulate_intra_node(
            random_graph, p, policy=policy, jitter=0.3, worker_jitter=0.3,
            seed=p,
        )
        for s in (0, 17):
            truth = dijkstra_sssp(random_graph, s)
            for t in range(random_graph.num_vertices):
                assert index.distance(s, t) == truth[t]

    def test_immediate_visibility_exact(self, random_graph):
        index, _run = simulate_intra_node(
            random_graph, 6, visibility="immediate"
        )
        truth = dijkstra_sssp(random_graph, 4)
        for t in range(random_graph.num_vertices):
            assert index.distance(4, t) == truth[t]


class TestDeterminism:
    def test_same_seed_same_result(self, random_graph):
        a_idx, a_run = simulate_intra_node(
            random_graph, 4, jitter=0.2, worker_jitter=0.2, seed=5
        )
        b_idx, b_run = simulate_intra_node(
            random_graph, 4, jitter=0.2, worker_jitter=0.2, seed=5
        )
        assert a_run.makespan == b_run.makespan
        assert a_idx.store == b_idx.store

    def test_different_seed_differs(self, medium_graph):
        a = simulate_intra_node(medium_graph, 4, jitter=0.3, seed=1)[1]
        b = simulate_intra_node(medium_graph, 4, jitter=0.3, seed=2)[1]
        assert a.makespan != b.makespan

    def test_no_jitter_is_seed_independent(self, random_graph):
        a = simulate_intra_node(random_graph, 3, seed=1)[1]
        b = simulate_intra_node(random_graph, 3, seed=2)[1]
        assert a.makespan == b.makespan


class TestSpeedupShape:
    def test_more_workers_is_faster(self, medium_graph):
        times = [
            simulate_intra_node(medium_graph, p)[1].makespan
            for p in (1, 4, 12)
        ]
        assert times[0] > times[1] > times[2]

    def test_speedup_is_sublinear(self, medium_graph):
        t1 = simulate_intra_node(medium_graph, 1)[1].makespan
        t8 = simulate_intra_node(medium_graph, 8)[1].makespan
        assert t1 / t8 <= 8.0

    def test_labels_grow_with_workers(self, medium_graph):
        ln = [
            simulate_intra_node(medium_graph, p)[0].avg_label_size()
            for p in (1, 8)
        ]
        assert ln[1] >= ln[0]

    def test_immediate_prunes_at_least_as_well(self, medium_graph):
        """Immediate visibility is the pruning upper bound."""
        comp = simulate_intra_node(medium_graph, 8, visibility="completion")
        imm = simulate_intra_node(medium_graph, 8, visibility="immediate")
        assert (
            imm[0].store.total_entries <= comp[0].store.total_entries
        )

    def test_worker_jitter_slows_makespan(self, medium_graph):
        clean = simulate_intra_node(medium_graph, 6)[1].makespan
        noisy = simulate_intra_node(
            medium_graph, 6, worker_jitter=0.5, seed=3
        )[1].makespan
        assert noisy > clean


class TestAccounting:
    def test_busy_time_bounded_by_makespan(self, random_graph):
        _idx, run = simulate_intra_node(random_graph, 4, jitter=0.2, seed=1)
        assert len(run.per_worker_busy) == 4
        for busy in run.per_worker_busy:
            assert busy <= run.makespan + 1e-9

    def test_schedule_recording(self, random_graph):
        events = _sim_root_searches(random_graph, 3)
        assert len(events) == random_graph.num_vertices
        for ev in events:
            assert 0 <= ev["worker"] < 3
            assert ev["finish"] > ev["start"] >= 0

    def test_every_root_executed_once(self, random_graph):
        roots = [ev["root"] for ev in _sim_root_searches(random_graph, 5)]
        assert sorted(roots) == list(range(random_graph.num_vertices))

    def test_per_root_stats_collected(self, random_graph):
        idx, _run = simulate_intra_node(random_graph, 4)
        assert len(idx.stats.per_root) == random_graph.num_vertices

    def test_load_imbalance_metric(self, medium_graph):
        _idx, run = simulate_intra_node(
            medium_graph, 6, worker_jitter=0.4, policy="static", seed=2
        )
        assert run.load_imbalance >= 1.0


class TestValidation:
    def test_zero_workers(self, random_graph):
        with pytest.raises(SimulationError):
            IntraNodeSimulator(random_graph, 0)

    def test_bad_visibility(self, random_graph):
        with pytest.raises(SimulationError):
            IntraNodeSimulator(random_graph, 1, visibility="psychic")

    def test_negative_jitter(self, random_graph):
        with pytest.raises(SimulationError):
            IntraNodeSimulator(random_graph, 1, jitter=-0.1)

    def test_advance_all_backwards(self, random_graph):
        sim = IntraNodeSimulator(random_graph, 2)
        sim.run_roots(list(sim.engine.order))
        with pytest.raises(SimulationError):
            sim.advance_all(sim.clock - 1.0)

    def test_empty_batch_is_noop(self, random_graph):
        sim = IntraNodeSimulator(random_graph, 2)
        sim.run_roots([])
        assert sim.clock == 0.0


class TestRounds:
    def test_incremental_batches_cover_all(self, random_graph):
        """Running the order in two batches still indexes everything."""
        sim = IntraNodeSimulator(random_graph, 3)
        order = list(sim.engine.order)
        sim.run_roots(order[:20])
        mid_clock = sim.clock
        sim.run_roots(order[20:])
        assert sim.clock >= mid_clock
        sim.store.finalize()
        truth = dijkstra_sssp(random_graph, 1)
        from repro.core.query import query_distance

        for t in range(random_graph.num_vertices):
            assert query_distance(sim.store, 1, t) == truth[t]

    def test_drain_deltas(self, random_graph):
        sim = IntraNodeSimulator(random_graph, 2)
        order = list(sim.engine.order)
        sim.run_roots(order[:10])
        first = sim.drain_deltas()
        assert len(first) > 0
        assert sim.drain_deltas() == []
        sim.run_roots(order[10:20])
        assert len(sim.drain_deltas()) > 0

    def test_receive_labels_dedupes(self, random_graph):
        sim = IntraNodeSimulator(random_graph, 2)
        sim.receive_labels([(0, 5, 1.5), (0, 5, 1.5), (1, 5, 2.0)])
        assert sim.store.label_size(0) == 1
        assert sim.store.label_size(1) == 1
