"""Provider policies built on the MCCS mechanisms (§4.3).

Four concrete policies from the paper:

* Example #1 — :func:`locality_ring_order` (topology-aware rings);
* Example #2 — :func:`fair_flow_assignment` (Hedera-style best fit, FFA);
* Example #3 — :func:`priority_flow_assignment` (reserved routes, PFA);
* Example #4 — :func:`compute_traffic_schedule` (time windows, TS).
"""

from .ffa import FlowDemand, RouteAssignment, collect_demands, fair_flow_assignment
from .pfa import priority_flow_assignment
from .ring_order import (
    cross_rack_flows,
    cross_rack_ratio,
    expected_random_cross_rack_ratio,
    locality_ring_order,
    optimal_cross_rack_flows,
    random_host_major_order,
)
from .ts import (
    TrafficAnalysis,
    analyze_trace,
    compute_traffic_schedule,
    schedule_for_others,
)

__all__ = [
    "FlowDemand",
    "RouteAssignment",
    "TrafficAnalysis",
    "analyze_trace",
    "collect_demands",
    "compute_traffic_schedule",
    "cross_rack_flows",
    "cross_rack_ratio",
    "expected_random_cross_rack_ratio",
    "fair_flow_assignment",
    "locality_ring_order",
    "optimal_cross_rack_flows",
    "priority_flow_assignment",
    "random_host_major_order",
    "schedule_for_others",
]
