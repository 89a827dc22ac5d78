"""Example #3: Priority flow assignment, PFA (§4.3).

"We modify FFA to allow some routes to be reserved for high priority
applications.  We first fit flows of low priority applications using only
non-reserved routes, and flows of high priority applications are assigned
best routes from all available ones."  In the paper's running example, one
of the two routes between rack A and rack B is dedicated to the
prioritized application.

Reservations constrain a *choice* of route: a flow with a single path (a
rack-local hop, or a pair a spine failure left one path) takes it whatever
its tenant's priority.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from ...cluster.specs import Cluster
from ...netsim.errors import PolicyError
from ..communicator import ServiceCommunicator
from .ffa import DemandMemo, RouteAssignment, _LinkLoadTracker, fair_flow_assignment


def priority_flow_assignment(
    cluster: Cluster,
    comms: Sequence[ServiceCommunicator],
    *,
    high_priority_apps: Sequence[str],
    reserved_routes: Optional[Set[int]] = None,
    memo: Optional[DemandMemo] = None,
) -> Dict[int, RouteAssignment]:
    """FFA with routes reserved for prioritized tenants.

    Args:
        cluster: The fabric.
        comms: All managed communicators.
        high_priority_apps: Apps allowed on the reserved routes.  Their
            flows are placed first (best fit over *all* routes).
        reserved_routes: Route ids low-priority tenants must avoid;
            defaults to ``{0}`` (one dedicated route, as in the paper's
            rack A/B example).
        memo: Remembered demands, as for :func:`fair_flow_assignment`.

    Returns:
        ``{comm_id: {(src_rank, dst_rank, channel): route_id}}``.
    """
    if reserved_routes is None:
        reserved_routes = {0}
    high = set(high_priority_apps)
    if not high:
        raise PolicyError("PFA needs at least one prioritized application")
    num_routes = cluster.fabric.num_fabric_paths
    open_routes = {r for r in range(num_routes) if r not in reserved_routes}
    if not open_routes:
        raise PolicyError("PFA cannot reserve every route")

    high_comms = [c for c in comms if c.app_id in high]
    low_comms = [c for c in comms if c.app_id not in high]
    tracker = _LinkLoadTracker(cluster)
    assignments: Dict[int, RouteAssignment] = {}
    # Low-priority flows are restricted to the open routes; prioritized
    # flows see the whole route space (and an emptier network, since the
    # reserved routes carry nothing else).
    assignments.update(
        fair_flow_assignment(
            cluster,
            low_comms,
            allowed_routes_of={c.app_id: open_routes for c in low_comms},
            tracker=tracker,
            memo=memo,
        )
    )
    assignments.update(
        fair_flow_assignment(cluster, high_comms, tracker=tracker, memo=memo)
    )
    return assignments
