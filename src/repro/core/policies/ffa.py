"""Example #2: Best-fit fair flow assignment, FFA (§4.3).

"Once the ring configuration for all applications are optimized, the
communication patterns between hosts and hence the set of flows can be
determined. ... We use a slightly modified version of the greedy
heuristics proposed in Hedera, where for each flow we assign it the path
that has minimal excess bandwidth demand.  We round-robin between flows
from different jobs for fairness."

The policy consumes the collective strategy configuration of all
communicators (communication patterns depend only on the strategy, so FFA
knows every flow — every RDMA connection — in the network), and emits a
route id per connection, which MCCS's transport engines realize via
policy-based routing.

A pass scores the topology's compiled link rows, and a :data:`DemandMemo`
hands back each communicator's demands while nothing they were derived
from has changed, so a join or exit re-derives only what it touched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ...cluster.specs import Cluster
from ...netsim.errors import PolicyError
from ...netsim.topology import RouteRows
from ..communicator import ServiceCommunicator

RouteAssignment = Dict[Tuple[int, int, int], int]
"""(src rank, dst rank, channel) -> route id, per communicator."""


@dataclass
class FlowDemand:
    """One inter-host connection that needs a route."""

    comm_id: int
    app_id: str
    src_rank: int
    dst_rank: int
    channel: int
    paths: Sequence[Sequence[str]]
    demand: float
    #: ``paths`` as link numbers (see :meth:`Topology.route_rows`).
    rows: RouteRows

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.src_rank, self.dst_rank, self.channel)


DemandMemo = Dict[int, Tuple[tuple, List[FlowDemand]]]
"""comm id -> (everything :func:`collect_demands` read, its result)."""


def collect_demands(
    cluster: Cluster, comm: ServiceCommunicator
) -> List[FlowDemand]:
    """Enumerate the inter-host connections implied by a communicator's
    current strategy (ring order x channels)."""
    strategy = comm.strategy
    topology = cluster.topology
    demands: List[FlowDemand] = []
    for src_rank, dst_rank in strategy.ring.edges():
        src, dst = comm.gpus[src_rank], comm.gpus[dst_rank]
        if src.host_id == dst.host_id:
            continue
        for channel in range(strategy.channels):
            src_nic = cluster.nic_of_channel(src, channel)
            dst_nic = cluster.nic_of_channel(dst, channel)
            paths = topology.shortest_paths(src_nic, dst_nic)
            nic_cap = min(
                topology.capacity_of(paths[0][0]),
                topology.capacity_of(paths[0][-1]),
            )
            demands.append(
                FlowDemand(
                    comm_id=comm.comm_id,
                    app_id=comm.app_id,
                    src_rank=src_rank,
                    dst_rank=dst_rank,
                    channel=channel,
                    paths=paths,
                    demand=nic_cap,
                    rows=topology.route_rows(src_nic, dst_nic),
                )
            )
    return demands


class _LinkLoadTracker:
    """Per-link offered demand for best-fit placement, in lists indexed
    by link number; :func:`fair_flow_assignment` fills it."""

    def __init__(self, cluster: Cluster) -> None:
        self.cap = [link.capacity for link in cluster.topology.links.values()]
        self.load = [0.0] * len(self.cap)


def _best_fit(
    flow: FlowDemand,
    tracker: _LinkLoadTracker,
    allowed_routes: Optional[Set[int]] = None,
) -> int:
    """Hedera-style best fit: the route with minimal excess demand.

    With utilization as the (capacity-normalized) excess measure, the
    chosen path is the one whose most-loaded link stays lowest after
    placing this flow.  Ties break toward the lowest route id for
    determinism.  A route scores max(its shared links, its own); a flow
    with a single path has no choice, so ``allowed_routes`` spares it.
    """
    shared, own = flow.rows
    if len(own) == 1:
        return 0
    load, cap, demand = tracker.load, tracker.cap, flow.demand
    base = 0.0
    for link in shared:
        u = (load[link] + demand) / cap[link]
        if u > base:
            base = u
    best_route, best_score = -1, math.inf
    for route_id, links in enumerate(own):
        if allowed_routes is not None and route_id not in allowed_routes:
            continue
        score = base
        for link in links:
            u = (load[link] + demand) / cap[link]
            if u > score:
                score = u
        if score < best_score - 1e-12:
            best_route, best_score = route_id, score
    if best_route < 0:
        raise PolicyError(
            f"no permitted route for flow {flow.key} of {flow.app_id}"
        )
    return best_route


def _round_robin(groups: Sequence[List[FlowDemand]]) -> List[FlowDemand]:
    """Interleave flows of different jobs one at a time (fairness)."""
    return [
        flow
        for layer in itertools.zip_longest(*groups)
        for flow in layer
        if flow is not None
    ]


def fair_flow_assignment(
    cluster: Cluster,
    comms: Sequence[ServiceCommunicator],
    *,
    allowed_routes_of: Optional[Mapping[str, Set[int]]] = None,
    tracker: Optional[_LinkLoadTracker] = None,
    memo: Optional[DemandMemo] = None,
) -> Dict[int, RouteAssignment]:
    """Assign a route id to every inter-host connection of every
    communicator.

    Args:
        cluster: The fabric.
        comms: All managed communicators (the controller's global view).
        allowed_routes_of: Optional per-app route restrictions (used by
            PFA to keep low-priority tenants off reserved routes).
        tracker: Optionally continue filling an existing load tracker
            (PFA places priority tenants first, then everyone else).
        memo: Demands kept across passes, refreshed in place; an entry is
            reused while the communicator's GPUs, ring order and channels,
            the topology's paths and host / NIC liveness are unchanged.

    Returns:
        ``{comm_id: {(src_rank, dst_rank, channel): route_id}}``.
    """
    tracker = tracker if tracker is not None else _LinkLoadTracker(cluster)
    memo = memo if memo is not None else {}
    fabric = (
        cluster.topology.path_generation,
        [(host.alive, [nic.alive for nic in host.nics]) for host in cluster.hosts],
    )
    by_job: Dict[str, List[FlowDemand]] = {}
    for comm in sorted(comms, key=lambda c: c.comm_id):
        strategy = comm.strategy
        key = (fabric, strategy.ring.order, strategy.channels,
               [gpu.global_id for gpu in comm.gpus])
        entry = memo.get(comm.comm_id)
        if entry is None or entry[0] != key:
            entry = memo[comm.comm_id] = (key, collect_demands(cluster, comm))
        for demand in entry[1]:
            by_job.setdefault(demand.app_id, []).append(demand)
    assignments: Dict[int, RouteAssignment] = {c.comm_id: {} for c in comms}
    load, allowed_of = tracker.load, allowed_routes_of or {}
    for flow in _round_robin([by_job[j] for j in sorted(by_job)]):
        route_id = _best_fit(flow, tracker, allowed_of.get(flow.app_id))
        shared, own = flow.rows
        for link in shared + own[route_id]:
            load[link] += flow.demand
        assignments[flow.comm_id][flow.src_rank, flow.dst_rank, flow.channel] = route_id
    return assignments
