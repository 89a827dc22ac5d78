"""Policy module tests: ring ordering, FFA, PFA, TS (§4.3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.specs import custom_cluster, testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.core.policies.ffa import collect_demands, fair_flow_assignment
from repro.core.policies.pfa import priority_flow_assignment
from repro.core.policies.ring_order import (
    cross_rack_flows,
    cross_rack_ratio,
    expected_random_cross_rack_ratio,
    locality_ring_order,
    optimal_cross_rack_flows,
    random_host_major_order,
)
from repro.core.policies.ts import analyze_trace, compute_traffic_schedule
from repro.core.tracing import CommTrace, TraceRecord
from repro.collectives.types import Collective
from repro.netsim.errors import PolicyError


# -- Example #1: locality rings ------------------------------------------------
def test_locality_order_groups_hosts_and_racks():
    cl = testbed_cluster()
    gpus = [g for h in (2, 0, 3, 1) for g in cl.hosts[h].gpus]
    order = locality_ring_order(cl, gpus)
    hosts = [gpus[r].host_id for r in order]
    assert hosts == [0, 0, 1, 1, 2, 2, 3, 3]


def test_locality_order_minimizes_cross_rack():
    cl = testbed_cluster()
    gpus = [g for h in range(4) for g in cl.hosts[h].gpus]
    order = locality_ring_order(cl, gpus)
    assert cross_rack_flows(cl, gpus, order) == optimal_cross_rack_flows(cl, gpus)
    assert cross_rack_ratio(cl, gpus, order) == 1.0


def test_single_rack_job_has_ratio_one():
    cl = testbed_cluster()
    gpus = [g for h in (0, 1) for g in cl.hosts[h].gpus]
    assert optimal_cross_rack_flows(cl, gpus) == 0
    anything = list(range(len(gpus)))
    assert cross_rack_ratio(cl, gpus, anything) == 1.0


def test_worst_case_ring_doubles_cross_rack():
    cl = testbed_cluster()  # 2 hosts/rack
    gpus = [cl.hosts[h].gpus[0] for h in range(4)]
    alternating = [0, 2, 1, 3]  # rack 0,1,0,1
    assert cross_rack_flows(cl, gpus, alternating) == 4
    assert cross_rack_ratio(cl, gpus, alternating) == 2.0


def test_expected_ratio_formula_limits():
    # paper: worst case 2x at 2 hosts/rack, 4x at 4 hosts/rack
    assert expected_random_cross_rack_ratio(2, 512) == pytest.approx(2.0, rel=0.01)
    assert expected_random_cross_rack_ratio(4, 1024) == pytest.approx(4.0, rel=0.01)
    assert expected_random_cross_rack_ratio(2, 2) == 1.0


def test_expected_ratio_formula_matches_monte_carlo():
    hosts_per_rack, num_hosts = 4, 16
    rng = random.Random(0)
    racks = num_hosts // hosts_per_rack
    total = 0.0
    trials = 4000
    for _ in range(trials):
        order = list(range(num_hosts))
        rng.shuffle(order)
        cross = sum(
            1
            for i in range(num_hosts)
            if order[i] // hosts_per_rack != order[(i + 1) % num_hosts] // hosts_per_rack
        )
        total += cross / racks
    assert total / trials == pytest.approx(
        expected_random_cross_rack_ratio(hosts_per_rack, num_hosts), rel=0.03
    )


def test_expected_ratio_rejects_ragged_packing():
    with pytest.raises(ValueError):
        expected_random_cross_rack_ratio(4, 10)


def test_random_host_major_order_keeps_hosts_contiguous():
    cl = testbed_cluster()
    gpus = [g for h in range(4) for g in cl.hosts[h].gpus]
    order = random_host_major_order(gpus, random.Random(3))
    hosts = [gpus[r].host_id for r in order]
    for i in range(0, len(hosts), 2):
        assert hosts[i] == hosts[i + 1]


# -- Examples #2/#3: FFA / PFA ----------------------------------------------------
def make_two_tenants():
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    a = dep.create_communicator("A", [cl.hosts[0].gpus[0], cl.hosts[2].gpus[0]])
    b = dep.create_communicator("B", [cl.hosts[1].gpus[0], cl.hosts[3].gpus[0]])
    return cl, dep, a, b


def test_collect_demands_skips_intra_host():
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    comm = dep.create_communicator("A", cl.hosts[0].gpus)
    assert collect_demands(cl, comm) == []


def test_collect_demands_inter_host():
    cl, dep, a, b = make_two_tenants()
    demands = collect_demands(cl, a)
    assert len(demands) == 2  # one flow per ring direction
    assert all(len(d.paths) == 2 for d in demands)


def test_ffa_spreads_competing_flows():
    """Two tenants with one cross-rack flow per direction each: FFA must
    put them on different spines (no collision)."""
    cl, dep, a, b = make_two_tenants()
    assignments = fair_flow_assignment(cl, [a, b])
    # direction rack0->rack1: A's flow and B's flow must differ in route
    route_a = assignments[a.comm_id][(0, 1, 0)]
    route_b = assignments[b.comm_id][(0, 1, 0)]
    assert route_a != route_b


def test_ffa_assigns_every_interhost_connection():
    cl, dep, a, b = make_two_tenants()
    assignments = fair_flow_assignment(cl, [a, b])
    for comm in (a, b):
        assert set(assignments[comm.comm_id]) == {
            d.key for d in collect_demands(cl, comm)
        }


def test_ffa_round_robin_is_fair_under_asymmetry():
    """Three tenants, two routes: each route ends up with at most 2 flows
    per direction (no tenant starves)."""
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    comms = [
        dep.create_communicator("A", [cl.hosts[0].gpus[0], cl.hosts[2].gpus[0]]),
        dep.create_communicator("B", [cl.hosts[1].gpus[0], cl.hosts[3].gpus[0]]),
        dep.create_communicator("C", [cl.hosts[0].gpus[1], cl.hosts[2].gpus[1]]),
    ]
    assignments = fair_flow_assignment(cl, comms)
    loads = {}
    for comm in comms:
        for (src, dst, ch), route in assignments[comm.comm_id].items():
            direction = comm.gpus[src].host_id < 2
            loads[(direction, route)] = loads.get((direction, route), 0) + 1
    assert max(loads.values()) <= 2


def test_pfa_reserves_route_for_priority_tenant():
    cl, dep, a, b = make_two_tenants()
    assignments = priority_flow_assignment(
        cl, [a, b], high_priority_apps=["A"], reserved_routes={0}
    )
    assert all(r == 0 for r in assignments[a.comm_id].values())
    assert all(r != 0 for r in assignments[b.comm_id].values())


def test_pfa_requires_a_priority_app():
    cl, dep, a, b = make_two_tenants()
    with pytest.raises(PolicyError):
        priority_flow_assignment(cl, [a, b], high_priority_apps=[])


def test_pfa_cannot_reserve_everything():
    cl, dep, a, b = make_two_tenants()
    with pytest.raises(PolicyError):
        priority_flow_assignment(
            cl, [a, b], high_priority_apps=["A"], reserved_routes={0, 1}
        )


# -- Example #4: TS ---------------------------------------------------------------
def periodic_trace(busy=1.0, idle=2.0, cycles=5):
    trace = CommTrace(comm_id=1, app_id="B")
    t = 0.0
    for i in range(cycles):
        trace.append(TraceRecord(i, Collective.ALL_REDUCE, 100, t, t, t + busy))
        t += busy + idle
    return trace


def test_ts_analysis_extracts_period():
    analysis = analyze_trace(periodic_trace())
    assert analysis.busy == pytest.approx(1.0)
    assert analysis.idle == pytest.approx(2.0)
    assert analysis.period == pytest.approx(3.0)


def test_ts_schedule_opens_during_idle():
    analysis, schedule = compute_traffic_schedule(periodic_trace())
    # during the prioritized app's busy window others are closed
    assert not schedule.is_open(analysis.phase + 0.5)
    assert schedule.is_open(analysis.phase + 1.5)


def test_ts_guard_widens_busy_window():
    a0, _ = compute_traffic_schedule(periodic_trace(), guard=0.0)
    a1, _ = compute_traffic_schedule(periodic_trace(), guard=0.1)
    assert a1.busy == pytest.approx(a0.busy + 0.2)


def test_ts_rejects_thin_traces():
    with pytest.raises(PolicyError):
        analyze_trace(periodic_trace(cycles=1))
