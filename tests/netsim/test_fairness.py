"""Max-min fairness allocator tests, including reference/solver parity."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.fairness import (
    IncrementalFairnessSolver,
    bottleneck_rate,
    progressive_filling,
)
from repro.netsim.flows import Flow


_flow_ids = itertools.count()


def mk_flow(path, weight=1.0, gated=False, size=1e9):
    return Flow(size, tuple(path), f"f{next(_flow_ids)}", weight=weight, gated=gated)


def solve_once(flows, caps):
    """One-shot allocation by the engine's solver: flow id -> rate."""
    solver = IncrementalFairnessSolver(caps)
    solver.add_flows(flows)
    solver.solve()
    return solver.rates_by_id()


def link_loads(flows, rates):
    """Aggregate allocated rate per link (brute force)."""
    loads = {}
    for flow in flows:
        for link in flow.links:
            loads[link] = loads.get(link, 0.0) + rates[flow.flow_id]
    return loads


CAPS = {"l1": 10.0, "l2": 10.0, "l3": 5.0}


def test_single_flow_gets_bottleneck():
    f = mk_flow(["l1", "l3"])
    rates = progressive_filling([f], CAPS)
    assert rates[f.flow_id] == pytest.approx(5.0)


def test_equal_share_on_one_link():
    flows = [mk_flow(["l1"]) for _ in range(4)]
    rates = progressive_filling(flows, CAPS)
    for f in flows:
        assert rates[f.flow_id] == pytest.approx(2.5)


def test_classic_three_flow_maxmin():
    # f1 on l1+l2, f2 on l1, f3 on l2, caps 10/10: all get 5.
    f1, f2, f3 = mk_flow(["l1", "l2"]), mk_flow(["l1"]), mk_flow(["l2"])
    rates = progressive_filling([f1, f2, f3], {"l1": 10.0, "l2": 10.0})
    assert rates[f1.flow_id] == pytest.approx(5.0)
    assert rates[f2.flow_id] == pytest.approx(5.0)
    assert rates[f3.flow_id] == pytest.approx(5.0)


def test_unfrozen_flows_pick_up_slack():
    # f1 bottlenecked at l3 (5), f2 alone gets the rest of l1 (10-? = ...)
    f1 = mk_flow(["l1", "l3"])
    f2 = mk_flow(["l1"])
    rates = progressive_filling([f1, f2], CAPS)
    assert rates[f1.flow_id] == pytest.approx(5.0)
    assert rates[f2.flow_id] == pytest.approx(5.0)
    # l1 still has headroom; f2's share is max-min fair (5 each would leave
    # slack, so f2 grows to 5? no: l1 cap 10, f1 frozen at 5 -> f2 gets 5.)


def test_weighted_shares():
    f1 = mk_flow(["l1"], weight=3.0)
    f2 = mk_flow(["l1"], weight=1.0)
    rates = progressive_filling([f1, f2], {"l1": 8.0})
    assert rates[f1.flow_id] == pytest.approx(6.0)
    assert rates[f2.flow_id] == pytest.approx(2.0)


def test_gated_flows_get_zero():
    f1 = mk_flow(["l1"], gated=True)
    f2 = mk_flow(["l1"])
    rates = progressive_filling([f1, f2], CAPS)
    assert rates[f1.flow_id] == 0.0
    assert rates[f2.flow_id] == pytest.approx(10.0)


def test_unknown_link_raises():
    f = mk_flow(["ghost"])
    with pytest.raises(KeyError):
        progressive_filling([f], CAPS)


def test_bottleneck_rate():
    assert bottleneck_rate(["l1", "l3"], CAPS) == 5.0


def test_solver_link_loads_sum_of_reference_rates():
    f1, f2 = mk_flow(["l1", "l2"]), mk_flow(["l1"])
    caps = {"l1": 10.0, "l2": 10.0}
    rates = progressive_filling([f1, f2], caps)
    solver = IncrementalFairnessSolver(caps)
    solver.add_flows([f1, f2])
    solver.solve()
    loads = solver.link_loads()
    assert loads["l1"] == pytest.approx(rates[f1.flow_id] + rates[f2.flow_id])
    assert loads["l2"] == pytest.approx(rates[f1.flow_id])


# ---------------------------------------------------------------------------
# property-based: engine solver == reference, and max-min invariants
# ---------------------------------------------------------------------------
@st.composite
def random_scenario(draw):
    num_links = draw(st.integers(2, 6))
    links = [f"L{i}" for i in range(num_links)]
    caps = {l: draw(st.floats(1.0, 100.0)) for l in links}
    num_flows = draw(st.integers(1, 8))
    flows = []
    for _ in range(num_flows):
        path_len = draw(st.integers(1, min(3, num_links)))
        path = draw(
            st.lists(st.sampled_from(links), min_size=path_len, max_size=path_len, unique=True)
        )
        weight = draw(st.floats(0.5, 4.0))
        gated = draw(st.booleans())
        flows.append(mk_flow(path, weight=weight, gated=gated))
    return flows, caps


@given(random_scenario())
@settings(max_examples=120, deadline=None)
def test_solver_matches_reference(scenario):
    flows, caps = scenario
    ref = progressive_filling(flows, caps)
    vec = solve_once(flows, caps)
    for f in flows:
        assert vec[f.flow_id] == pytest.approx(ref[f.flow_id], rel=1e-6, abs=1e-9)


@given(random_scenario())
@settings(max_examples=120, deadline=None)
def test_allocation_is_feasible_and_positive(scenario):
    flows, caps = scenario
    rates = solve_once(flows, caps)
    loads = link_loads(flows, rates)
    for link, load in loads.items():
        assert load <= caps[link] * (1 + 1e-6)
    for f in flows:
        if f.active:
            assert rates[f.flow_id] > 0
        else:
            assert rates[f.flow_id] == 0


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_maxmin_no_unilateral_increase(scenario):
    """No active flow can grow without a saturated link on its path."""
    flows, caps = scenario
    rates = solve_once(flows, caps)
    loads = link_loads(flows, rates)
    for f in flows:
        if not f.active:
            continue
        saturated = any(loads[l] >= caps[l] * (1 - 1e-6) for l in set(f.path))
        assert saturated, f"flow {f.flow_id} could still grow"
