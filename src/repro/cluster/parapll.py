"""Cluster ParaPLL (Algorithm 3) over the simulated cluster.

Each of the *q* nodes is an :class:`~repro.sim.executor.
IntraNodeSimulator` (p virtual threads, static or dynamic intra-node
policy) holding a *local* label store.  The degree-ordered roots are
statically dealt round-robin across nodes; each node's share is split
into ``syncs`` chunks.  After every chunk all nodes meet at a barrier
and allgather the label deltas accumulated in their ``List`` (Algorithm
3 lines 9–15) through :class:`~repro.cluster.comm.SimComm`, which
charges the O(l·q·log q) exchange to the shared virtual clock.

With ``syncs=1`` (the paper's recommended setting) the only exchange
happens at the very end: nodes prune exclusively with their own labels,
producing the 2–3× label growth of Table 5 but no mid-run communication.
Larger ``syncs`` trade communication time for pruning power — Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cluster.comm import SimComm
from repro.cluster.network import NetworkModel
from repro.cluster.partition import round_robin_partition, split_chunks
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.order import by_degree
from repro.obs import buildmon as _buildmon
from repro.obs import context as _ctx
from repro.obs import flightrec as _flightrec
from repro.obs import trace as _trace
from repro.obs.instruments import record_sync_round
from repro.sim.costmodel import CostModel
from repro.sim.executor import IntraNodeSimulator
from repro.types import IndexStats

__all__ = ["simulate_cluster", "ClusterRunResult"]


@dataclass
class ClusterRunResult:
    """Outcome of one simulated cluster build (a Table-5 / Figure-7 cell).

    Attributes:
        index_stats: statistics of the converged (union) label set.
        makespan: simulated wall time of the whole build, seconds.
        computation_time: per-node busy time, summed.
        communication_time: time inside allgather exchanges (per the
            critical path: barrier-to-exit once per sync), seconds.
        sync_wait_time: barrier skew (fast nodes waiting for the
            slowest), summed across nodes, seconds.
        num_nodes: cluster size q.
        threads_per_node: virtual threads per node p.
        syncs: number of synchronisation points c.
        per_node_clock: each node's final clock (all equal after the
            last sync).
        per_sync_entries: label entries exchanged at each sync point.
    """

    index_stats: IndexStats
    makespan: float
    computation_time: float
    communication_time: float
    sync_wait_time: float
    num_nodes: int
    threads_per_node: int
    syncs: int
    per_node_clock: List[float] = field(default_factory=list)
    per_sync_entries: List[int] = field(default_factory=list)


def simulate_cluster(
    graph: CSRGraph,
    num_nodes: int,
    threads_per_node: int = 6,
    policy: str = "dynamic",
    syncs: int = 1,
    order: Optional[Sequence[int]] = None,
    cost_model: Optional[CostModel] = None,
    network: Optional[NetworkModel] = None,
    jitter: float = 0.0,
    worker_jitter: float = 0.0,
    seed: int = 0,
    sync_schedule: str = "uniform",
    replicate_top: int = 0,
    inter_node: str = "round-robin",
) -> Tuple[PLLIndex, ClusterRunResult]:
    """Simulate a full cluster ParaPLL build.

    Args:
        graph: the graph to index.
        num_nodes: cluster size ``q``.
        threads_per_node: virtual threads ``p`` inside each node (the
            paper's nodes have one 6-core Xeon, hence the default).
        policy: intra-node assignment policy (``static``/``dynamic``).
        syncs: synchronisation count ``c``; labels are exchanged after
            every ⌊share/c⌋ roots per node (uniform schedule), the last
            exchange landing at the end of the build.
        order: global vertex ordering (defaults to descending degree).
        cost_model: calibrated computation cost model.
        network: interconnect cost model.
        jitter: per-task machine noise (see the intra-node simulator).
        worker_jitter: persistent per-worker speed spread.
        seed: RNG seed for the noise streams.
        sync_schedule: ``"uniform"`` (the paper's equal intervals) or
            ``"early"`` (geometric, front-loaded; see
            :func:`~repro.cluster.partition.split_chunks`).
        replicate_top: reproduction-scale extension: every node indexes
            the global top-K roots itself before its round-robin share,
            restoring the pruning power of the most important hubs at
            the cost of duplicating their searches on all nodes.  0
            (default) is the paper-faithful behaviour.  The duplicate
            label entries are deduplicated at merge time.
        inter_node: how roots are split across nodes: the paper's
            ``"round-robin"`` (default) or the locality-aware
            ``"region"`` split (BFS-grown regions; ablation — see
            :func:`~repro.cluster.partition.region_partition`).

    Returns:
        ``(index, result)``: the queryable converged index and the
        timing breakdown.

    Raises:
        SimulationError: on invalid cluster shape.
    """
    if num_nodes < 1:
        raise SimulationError("num_nodes must be >= 1")
    if syncs < 1:
        raise SimulationError("syncs must be >= 1")
    if replicate_top < 0:
        raise SimulationError("replicate_top must be non-negative")
    if order is None:
        order = by_degree(graph)
    cost = (cost_model or CostModel()).for_graph(graph.num_vertices)
    comm = SimComm(
        num_nodes,
        network=network or NetworkModel(),
        seconds_per_unit=cost.seconds_per_unit,
    )

    nodes = [
        IntraNodeSimulator(
            graph,
            threads_per_node,
            policy=policy,
            order=order,
            cost_model=cost,
            jitter=jitter,
            worker_jitter=worker_jitter,
            seed=seed + 1009 * k,
        )
        for k in range(num_nodes)
    ]
    # Give each node's virtual workers a distinct id range in any
    # installed build monitor (node k reports workers k*p .. k*p+p-1).
    for k, node in enumerate(nodes):
        node.buildmon_worker_base = k * threads_per_node
    top = [int(v) for v in order[:replicate_top]]
    rest = order[replicate_top:]
    if inter_node == "round-robin":
        shares = round_robin_partition(rest, num_nodes)
    elif inter_node == "region":
        from repro.cluster.partition import region_partition

        shares = region_partition(graph, rest, num_nodes, seed=seed)
    else:
        raise SimulationError(
            f"unknown inter_node partition {inter_node!r} "
            "(round-robin|region)"
        )
    if top:
        shares = [top + share for share in shares]
    chunks = [
        split_chunks(
            share, syncs, schedule=sync_schedule, min_chunk=threads_per_node
        )
        for share in shares
    ]

    communication_time = 0.0
    sync_wait_time = 0.0
    per_sync_entries: List[int] = []
    # One trace context for the whole simulated build: the comm layer
    # stamps it into every allgather envelope (re-ranked per sender).
    build_ctx = _ctx.current() or _ctx.new_context()

    for j in range(syncs):
        # Local compute phase: each node indexes its j-th chunk.
        for k, node in enumerate(nodes):
            node.run_roots(chunks[k][j])
            comm.set_clock(k, node.clock)
        # Barrier skew: how long fast nodes idle at the sync point.
        barrier_time = max(node.clock for node in nodes)
        sync_wait_time += sum(barrier_time - node.clock for node in nodes)
        # Exchange each node's delta List (Algorithm 3 line 15).
        deltas = [node.drain_deltas() for node in nodes]
        round_entries = sum(len(d) for d in deltas)
        _flightrec.record(
            "sync_round", round=j, entries=round_entries, nodes=num_nodes
        )
        _buildmon.report_note(
            "sync_round", round=j, entries=round_entries, nodes=num_nodes
        )
        with _ctx.activate(build_ctx), _trace.span(
            "cluster_sync",
            round=j,
            entries=round_entries,
            nodes=num_nodes,
            trace_id=build_ctx.trace_id,
        ) as sp:
            before = comm.clocks[0]
            gathered = None
            for k, delta in enumerate(deltas):
                gathered = comm.allgather(k, delta)
            assert gathered is not None
            exchange_elapsed = comm.clocks[0] - max(before, barrier_time)
            communication_time += exchange_elapsed
            per_sync_entries.append(round_entries)
            record_sync_round(round_entries)
            # Merge remote labels and release all nodes at the common clock.
            redundant = 0
            for k, node in enumerate(nodes):
                for src, delta in enumerate(gathered):
                    if src != k:
                        redundant += node.receive_labels(delta)
                node.advance_all(comm.clocks[k])
            sp.set(sim_seconds=exchange_elapsed, redundant=redundant)

    # After the final exchange every node holds the converged label set.
    store: LabelStore = nodes[0].store
    store.finalize()
    makespan = comm.clocks[0]
    stats = IndexStats.from_sizes(store.label_sizes(), makespan)
    per_root = []
    for node in nodes:
        per_root.extend(node.per_root)
    stats.per_root = per_root
    index = PLLIndex(store, order, graph=graph, stats=stats)
    result = ClusterRunResult(
        index_stats=stats,
        makespan=makespan,
        computation_time=sum(sum(n.worker_busy) for n in nodes),
        communication_time=communication_time,
        sync_wait_time=sync_wait_time,
        num_nodes=num_nodes,
        threads_per_node=threads_per_node,
        syncs=syncs,
        per_node_clock=[n.clock for n in nodes],
        per_sync_entries=per_sync_entries,
    )
    return index, result
