"""Capacity planner: Erlang-C math and fleet-sizing behavior."""

import dataclasses
import math

import pytest

from repro.errors import PolicyError
from repro.service import CapacityModel, CapacityPlanner
from repro.service.capacity import erlang_c


def test_erlang_c_single_server_matches_mm1():
    # With c=1 Erlang C reduces to the M/M/1 queueing probability: rho.
    for rho in (0.1, 0.5, 0.9):
        assert erlang_c(1, rho) == pytest.approx(rho)


def test_erlang_c_bounds_and_monotonicity():
    assert erlang_c(8, 0.0) == 0.0
    assert erlang_c(8, 8.0) == 1.0  # saturated: every arrival queues
    loads = [1.0, 3.0, 5.0, 7.0]
    probs = [erlang_c(8, a) for a in loads]
    assert all(0.0 < p <= 1.0 for p in probs)
    assert probs == sorted(probs)  # more load, more queueing
    # More servers at the same load means less queueing.
    assert erlang_c(16, 5.0) < erlang_c(8, 5.0)


def test_erlang_c_rejects_bad_inputs():
    with pytest.raises(PolicyError):
        erlang_c(0, 1.0)
    with pytest.raises(PolicyError):
        erlang_c(4, -1.0)


def test_evaluate_saturated_plan_is_infeasible():
    planner = CapacityPlanner(CapacityModel(slots_per_host=8, service_time_s=0.01))
    plan = planner.evaluate(1, arrival_rate=10_000.0)
    assert not plan.feasible
    assert plan.p99_s == math.inf
    assert plan.queue_probability == 1.0


def test_hosts_for_meets_target_and_is_minimal():
    planner = CapacityPlanner(CapacityModel(slots_per_host=8, service_time_s=0.002))
    plan = planner.hosts_for(1000, 2.0, 0.05, peak_factor=1.8)
    assert plan.feasible
    assert plan.p99_s <= 0.05
    assert plan.utilization <= planner.model.max_utilization
    if plan.hosts > 1:
        smaller = planner.evaluate(plan.hosts - 1, plan.arrival_rate)
        assert not smaller.feasible or smaller.p99_s > 0.05


def test_hosts_for_monotone_in_population_and_target():
    planner = CapacityPlanner(CapacityModel(slots_per_host=8, service_time_s=0.002))
    small = planner.hosts_for(500, 2.0, 0.05).hosts
    large = planner.hosts_for(5000, 2.0, 0.05).hosts
    assert large >= small
    # Note the target must stay above the irreducible service tail
    # ln(100) * service_time ~ 9.2ms; below it no host count helps.
    tight = planner.hosts_for(1000, 2.0, 0.0095).hosts
    loose = planner.hosts_for(1000, 2.0, 0.5).hosts
    assert tight >= loose
    peaky = planner.hosts_for(1000, 2.0, 0.05, peak_factor=3.0).hosts
    flat = planner.hosts_for(1000, 2.0, 0.05, peak_factor=1.0).hosts
    assert peaky >= flat


def test_hosts_for_rejects_bad_inputs():
    planner = CapacityPlanner()
    with pytest.raises(PolicyError):
        planner.hosts_for(0, 2.0, 0.05)
    with pytest.raises(PolicyError):
        planner.hosts_for(100, -1.0, 0.05)
    with pytest.raises(PolicyError):
        planner.hosts_for(100, 2.0, 0.0)
    with pytest.raises(PolicyError):
        planner.hosts_for(10_000, 100.0, 0.001, max_hosts=2)


def test_plan_as_dict_round_trips_fields():
    plan = CapacityPlanner().hosts_for(100, 1.0, 0.1)
    d = dataclasses.asdict(plan)
    assert d["hosts"] == plan.hosts
    assert d["feasible"] is True
    assert set(d) == {
        "hosts", "servers", "arrival_rate", "offered_load",
        "utilization", "queue_probability", "p99_s", "feasible",
    }
