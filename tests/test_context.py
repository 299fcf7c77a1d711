"""Tests for repro.obs.context: cross-rank trace propagation."""

import json

import pytest

from repro import obs
from repro.cluster.comm import SimComm
from repro.cluster.runner import run_cluster_threads
from repro.cluster.threadcomm import ThreadComm, run_ranks
from repro.core.index import PLLIndex
from repro.generators.random_graphs import gnm_random_graph
from repro.obs import context as ctxmod
from repro.obs.context import (
    Envelope,
    TraceContext,
    activate,
    current,
    new_context,
    set_current,
    stamp,
    unwrap,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    set_current(None)
    yield
    obs.configure(tracing=False)
    obs.reset()
    set_current(None)


@pytest.fixture()
def tracing():
    obs.configure(tracing=True)
    yield
    obs.configure(tracing=False)


class TestTraceContext:
    def test_new_context_unique_ids(self):
        a, b = new_context(), new_context()
        assert a.trace_id != b.trace_id
        assert a.span_id is None and a.rank is None

    def test_child_shares_trace_id(self):
        root = new_context()
        child = root.child(rank=3)
        assert child.trace_id == root.trace_id
        assert child.rank == 3
        grandchild = child.child(span_id=7)
        assert grandchild.rank == 3 and grandchild.span_id == 7

    def test_dict_round_trip(self):
        ctx = TraceContext(trace_id="t1-9", span_id=4, rank=2)
        doc = ctx.to_dict()
        assert doc == {"trace_id": "t1-9", "span_id": 4, "rank": 2}
        assert TraceContext.from_dict(doc) == ctx
        assert TraceContext.from_dict(json.loads(json.dumps(doc))) == ctx

    def test_frozen(self):
        ctx = new_context()
        with pytest.raises(AttributeError):
            ctx.rank = 1


class TestThreadLocalCurrent:
    def test_default_is_none(self):
        assert current() is None

    def test_activate_scopes_and_restores(self):
        outer = new_context()
        inner = new_context()
        with activate(outer):
            assert current() is outer
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_thread_isolation(self):
        import threading

        seen = []
        with activate(new_context()):
            th = threading.Thread(target=lambda: seen.append(current()))
            th.start()
            th.join()
        assert seen == [None]


class TestStampUnwrap:
    def test_stamp_without_context(self):
        env = stamp({"k": 1})
        assert isinstance(env, Envelope)
        assert env.ctx is None
        assert env.flow_id
        payload, ctx, flow_id = unwrap(env)
        assert payload == {"k": 1} and ctx is None and flow_id == env.flow_id

    def test_stamp_carries_and_reranks_context(self):
        root = new_context(rank=0)
        with activate(root):
            env = stamp([1, 2], rank=5)
        assert env.ctx.rank == 5
        assert env.ctx.trace_id == root.trace_id

    def test_unwrap_passthrough(self):
        assert unwrap([1, 2]) == ([1, 2], None, None)

    def test_flow_ids_unique(self):
        assert ctxmod.next_flow_id() != ctxmod.next_flow_id()


class TestThreadCommPropagation:
    def test_payloads_arrive_unwrapped(self):
        comm = ThreadComm(2, timeout=5.0)

        def program(rank, c):
            if rank == 0:
                c.send({"hello": 1}, source=0, dest=1)
                return None
            return c.recv(source=0, dest=1)

        results = run_ranks(comm, program, trace_context=new_context())
        assert results[1] == {"hello": 1}

    def test_send_recv_events_share_flow_and_trace(self, tracing):
        comm = ThreadComm(2, timeout=5.0)
        build_ctx = new_context()

        def program(rank, c):
            if rank == 0:
                c.send("payload", source=0, dest=1)
                return None
            return c.recv(source=0, dest=1)

        run_ranks(comm, program, trace_context=build_ctx)
        records = obs.get_recorder().snapshot()
        sends = [r for r in records if r["kind"] == "comm_send"]
        recvs = [r for r in records if r["kind"] == "comm_recv"]
        assert sends and recvs
        assert sends[0]["attrs"]["flow_id"] == recvs[0]["attrs"]["flow_id"]
        assert sends[0]["attrs"]["trace_id"] == build_ctx.trace_id
        assert recvs[0]["attrs"]["trace_id"] == build_ctx.trace_id
        assert sends[0]["attrs"]["src"] == 0
        assert sends[0]["attrs"]["dest"] == 1

    def test_allgather_emits_recv_per_remote_rank(self, tracing):
        comm = ThreadComm(3, timeout=5.0)

        def program(rank, c):
            return c.allgather(rank, [rank])

        results = run_ranks(comm, program, trace_context=new_context())
        assert results[0] == [[0], [1], [2]]
        records = obs.get_recorder().snapshot()
        recvs = [r for r in records if r["kind"] == "comm_recv"]
        # Each of the 3 ranks receives from its 2 remote peers.
        assert len(recvs) == 6

    def test_each_rank_gets_per_rank_child_context(self):
        build_ctx = new_context()
        comm = ThreadComm(2, timeout=5.0)

        def program(rank, c):
            ctx = current()
            return (ctx.trace_id, ctx.rank)

        results = run_ranks(comm, program, trace_context=build_ctx)
        assert results == [(build_ctx.trace_id, 0), (build_ctx.trace_id, 1)]


class TestSimCommPropagation:
    def test_payload_and_cost_unaffected_by_envelopes(self):
        from repro.cluster.network import NetworkModel

        comm = SimComm(
            2,
            network=NetworkModel(latency_units=2.0, per_entry_units=1.0),
            seconds_per_unit=1.0,
        )
        comm.send([0, 0], source=0, dest=1)
        # Cost counts payload entries, never envelope overhead.
        assert comm.clocks[0] == 4.0
        assert comm.recv(source=0, dest=1) == [0, 0]

    def test_sim_events_carry_sim_clock(self, tracing):
        comm = SimComm(2)
        with activate(new_context()):
            comm.send([1], source=0, dest=1)
            comm.recv(source=0, dest=1)
        records = obs.get_recorder().snapshot()
        sends = [r for r in records if r["kind"] == "comm_send"]
        recvs = [r for r in records if r["kind"] == "comm_recv"]
        assert sends and recvs
        assert sends[0]["attrs"]["clock"] == "sim"
        assert sends[0]["attrs"]["flow_id"] == recvs[0]["attrs"]["flow_id"]


class TestStitchedClusterTrace:
    def test_cluster_build_yields_one_stitched_trace(self, tracing):
        """Acceptance: a c>1 build produces spans from every rank under
        one trace id, and the Chrome trace links them by flow events."""
        graph = gnm_random_graph(30, 80, seed=5)
        index = run_cluster_threads(graph, 2, syncs=2)

        records = obs.get_recorder().snapshot()
        rank_spans = [r for r in records if r["kind"] == "cluster_rank"]
        assert {r["attrs"]["rank"] for r in rank_spans} == {0, 1}
        trace_ids = {r["attrs"]["trace_id"] for r in rank_spans}
        assert len(trace_ids) == 1

        comm_events = [
            r
            for r in records
            if r["kind"] in ("comm_send", "comm_recv")
        ]
        assert comm_events
        assert {
            e["attrs"]["trace_id"] for e in comm_events
        } == trace_ids

        doc = obs.chrome_trace()
        flows_s = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
        flows_f = [e for e in doc["traceEvents"] if e.get("ph") == "f"]
        assert flows_s and flows_f
        assert {e["id"] for e in flows_f} <= {e["id"] for e in flows_s}

        # The build stays exact.
        serial = PLLIndex.build(graph)
        for s, t in [(0, 1), (3, 17), (5, 29)]:
            assert index.distance(s, t) == serial.distance(s, t)

    def test_tracing_off_build_has_no_comm_events(self):
        graph = gnm_random_graph(20, 50, seed=5)
        run_cluster_threads(graph, 2, syncs=1)
        names = {r["kind"] for r in obs.get_recorder().snapshot()}
        assert "comm_send" not in names and "comm_recv" not in names
