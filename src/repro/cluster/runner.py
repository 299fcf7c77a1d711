"""The per-rank cluster ParaPLL program (Algorithm 3, executable form).

:func:`cluster_rank_program` is written exactly like an MPI program:
it receives its rank and a communicator, owns a *private* label store,
indexes its static share of the degree-ordered roots chunk by chunk,
and exchanges delta ``List``s with the other ranks at every
synchronisation point.  Nothing is shared between ranks except what
flows through the communicator — swap :class:`~repro.cluster.
threadcomm.ThreadComm` for an ``mpi4py`` adapter and this runs on a
real cluster unchanged.

:func:`run_cluster_threads` is the convenience driver that launches one
thread per rank and merges the converged result into a queryable
:class:`~repro.core.index.PLLIndex`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cluster.partition import round_robin_partition, split_chunks
from repro.cluster.threadcomm import ThreadComm, run_ranks
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.order import by_degree
from repro.obs import buildmon as _buildmon
from repro.obs import context as _ctx
from repro.obs import flightrec as _flightrec
from repro.obs import trace as _trace
from repro.types import IndexStats, SearchStats

__all__ = ["cluster_rank_program", "run_cluster_threads"]

#: A label delta triple: (vertex, hub rank, distance).
Triple = Tuple[int, int, float]


def cluster_rank_program(
    rank: int,
    comm: ThreadComm,
    graph: CSRGraph,
    order: Sequence[int],
    syncs: int,
    sync_schedule: str = "uniform",
) -> LabelStore:
    """What one cluster node runs (the body of Algorithm 3).

    Args:
        rank: this node's rank in the communicator.
        comm: the message-passing layer.
        graph: the (replicated, read-only) input graph.
        order: the global vertex ordering, identical on every rank.
        syncs: synchronisation count ``c``.
        sync_schedule: chunking schedule (``uniform``/``early``).

    Returns:
        This rank's label store after the final synchronisation — the
        converged global label set (identical on every rank).
    """
    engine = PrunedDijkstra(graph, order)
    store = LabelStore(graph.num_vertices)
    share = round_robin_partition(order, comm.size)[rank]
    chunks = split_chunks(share, syncs, schedule=sync_schedule)
    ctx = _ctx.current()
    monitor = _buildmon.active()

    with _trace.span(
        "cluster_rank",
        rank=rank,
        trace_id=ctx.trace_id if ctx else None,
        chunks=len(chunks),
    ):
        for round_no, chunk in enumerate(chunks):
            # Local compute phase: index this chunk against local
            # labels, accumulating the update List (Alg. 3 lines 8-11).
            update_list: List[Triple] = []
            with _trace.span(
                "cluster_chunk", rank=rank, round=round_no, roots=len(chunk)
            ):
                for root in chunk:
                    root_stats = SearchStats() if monitor is not None else None
                    delta = engine.run(int(root), store, root_stats)
                    root_rank = engine.rank_of(int(root))
                    triples = [(v, root_rank, d) for v, d in delta]
                    store.add_delta(triples)
                    update_list.extend(triples)
                    if monitor is not None:
                        monitor.root_done(
                            rank, int(root), stats=root_stats,
                            labels=len(delta),
                        )
            # Synchronisation phase (line 15): exchange Lists, merge.
            _flightrec.record(
                "sync_round",
                rank=rank,
                round=round_no,
                entries=len(update_list),
            )
            if monitor is not None:
                monitor.note(
                    "sync_round",
                    rank=rank,
                    round=round_no,
                    entries=len(update_list),
                )
            gathered = comm.allgather(rank, update_list)
            store.merge_from(
                entry
                for src, triples in enumerate(gathered)
                if src != rank
                for entry in triples
            )
    engine.flush_metrics()
    return store


def run_cluster_threads(
    graph: CSRGraph,
    num_nodes: int,
    syncs: int = 1,
    sync_schedule: str = "uniform",
    order: Optional[Sequence[int]] = None,
    timeout: float = 120.0,
) -> PLLIndex:
    """Execute cluster ParaPLL with one real thread per node.

    This is the *functional* cluster path (exact message passing, no
    virtual time); use :func:`repro.cluster.parapll.simulate_cluster`
    when you need timing and communication-cost measurements.

    Returns:
        The converged, finalized index (exact distances).

    Raises:
        SimulationError: on invalid cluster shape.
        CommError: if a rank deadlocks (safety timeout).
    """
    if num_nodes < 1:
        raise SimulationError("num_nodes must be >= 1")
    if syncs < 1:
        raise SimulationError("syncs must be >= 1")
    if order is None:
        order = by_degree(graph)
    comm = ThreadComm(num_nodes, timeout=timeout)
    # One trace context for the whole build: every rank activates a
    # per-rank child, so spans/envelopes from all ranks stitch together.
    build_ctx = _ctx.current() or _ctx.new_context()
    stores = run_ranks(
        comm,
        lambda rank, c: cluster_rank_program(
            rank, c, graph, order, syncs, sync_schedule
        ),
        trace_context=build_ctx,
    )
    # Every rank converged to the same set; sanity-check then wrap one.
    reference = stores[0]
    for other in stores[1:]:
        if other != reference:
            raise SimulationError(
                "ranks diverged after the final synchronisation"
            )
    reference.finalize()
    stats = IndexStats.from_sizes(reference.label_sizes(), 0.0)
    return PLLIndex(reference, order, graph=graph, stats=stats)
