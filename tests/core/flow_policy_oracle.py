"""Reference FFA / PFA: the string-path loop the policies used to run.

Every pass re-derives each communicator's demands from scratch and scores
each candidate route link by link on link-id strings, so it shares no
state with the production policies (compiled route rows, remembered
demands) and is what they are held ``==`` to.  The one behaviour it adds
to the original loop is the documented PFA rule: a flow with a single
candidate path has no routing choice, so reservations do not apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.netsim.errors import PolicyError


@dataclass
class Demand:
    comm_id: int
    app_id: str
    key: Tuple[int, int, int]
    paths: Sequence[Sequence[str]]
    demand: float


def collect_demands(cluster, comm) -> List[Demand]:
    strategy = comm.strategy
    demands: List[Demand] = []
    for src_rank, dst_rank in strategy.ring.edges():
        src, dst = comm.gpus[src_rank], comm.gpus[dst_rank]
        if src.host_id == dst.host_id:
            continue
        for channel in range(strategy.channels):
            src_nic = cluster.nic_of_channel(src, channel)
            dst_nic = cluster.nic_of_channel(dst, channel)
            paths = cluster.topology.equal_cost_paths(src_nic, dst_nic)
            nic_cap = min(
                cluster.topology.capacity_of(paths[0][0]),
                cluster.topology.capacity_of(paths[0][-1]),
            )
            demands.append(
                Demand(comm.comm_id, comm.app_id, (src_rank, dst_rank, channel),
                       paths, nic_cap)
            )
    return demands


class LinkLoadTracker:
    def __init__(self, cluster) -> None:
        self._cap = {
            link_id: link.capacity
            for link_id, link in cluster.topology.links.items()
        }
        self._load: Dict[str, float] = {}

    def utilization_after(self, path: Sequence[str], demand: float) -> float:
        worst = 0.0
        for link in path:
            u = (self._load.get(link, 0.0) + demand) / self._cap[link]
            if u > worst:
                worst = u
        return worst

    def place(self, path: Sequence[str], demand: float) -> None:
        for link in path:
            self._load[link] = self._load.get(link, 0.0) + demand


def best_fit(
    flow: Demand, tracker: LinkLoadTracker, allowed_routes: Optional[Set[int]] = None
) -> int:
    candidates = range(len(flow.paths))
    if allowed_routes is not None and len(flow.paths) > 1:
        candidates = [r for r in candidates if r in allowed_routes]
        if not candidates:
            raise PolicyError(
                f"no permitted route for flow {flow.key} of {flow.app_id}"
            )
    best_route = None
    best_score = None
    for route_id in candidates:
        score = tracker.utilization_after(flow.paths[route_id], flow.demand)
        if best_score is None or score < best_score - 1e-12:
            best_score = score
            best_route = route_id
    return best_route


def round_robin(groups: Sequence[List[Demand]]) -> Iterable[Demand]:
    cursors = [0] * len(groups)
    remaining = sum(len(g) for g in groups)
    while remaining:
        for gi, group in enumerate(groups):
            if cursors[gi] < len(group):
                yield group[cursors[gi]]
                cursors[gi] += 1
                remaining -= 1


def fair_flow_assignment(
    cluster,
    comms,
    *,
    allowed_routes_of: Optional[Mapping[str, Set[int]]] = None,
    tracker: Optional[LinkLoadTracker] = None,
):
    tracker = tracker if tracker is not None else LinkLoadTracker(cluster)
    by_job: Dict[str, List[Demand]] = {}
    for comm in sorted(comms, key=lambda c: c.comm_id):
        for demand in collect_demands(cluster, comm):
            by_job.setdefault(demand.app_id, []).append(demand)
    assignments = {c.comm_id: {} for c in comms}
    for flow in round_robin([by_job[j] for j in sorted(by_job)]):
        allowed = None
        if allowed_routes_of is not None and flow.app_id in allowed_routes_of:
            allowed = allowed_routes_of[flow.app_id]
        route_id = best_fit(flow, tracker, allowed)
        tracker.place(flow.paths[route_id], flow.demand)
        assignments[flow.comm_id][flow.key] = route_id
    return assignments


def priority_flow_assignment(cluster, comms, *, high_priority_apps, reserved_routes=None):
    if reserved_routes is None:
        reserved_routes = {0}
    high = set(high_priority_apps)
    if not high:
        raise PolicyError("PFA needs at least one prioritized application")
    num_routes = cluster.fabric.num_fabric_paths
    open_routes = {r for r in range(num_routes) if r not in reserved_routes}
    if not open_routes:
        raise PolicyError("PFA cannot reserve every route")
    low_comms = [c for c in comms if c.app_id not in high]
    tracker = LinkLoadTracker(cluster)
    assignments = fair_flow_assignment(
        cluster,
        low_comms,
        allowed_routes_of={c.app_id: open_routes for c in low_comms},
        tracker=tracker,
    )
    assignments.update(
        fair_flow_assignment(
            cluster, [c for c in comms if c.app_id in high], tracker=tracker
        )
    )
    return assignments
