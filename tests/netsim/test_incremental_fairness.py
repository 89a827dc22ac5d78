"""IncrementalFairnessSolver vs the reference allocator, under churn.

The persistent solver must produce the same weighted max-min allocation as
:func:`progressive_filling` after *any* sequence of structural updates
(flow add/remove, gate flips, capacity changes) — that is the whole
correctness contract of the O(Δ) update path, including tombstone
compaction and slot reuse.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.fairness import (
    SCALAR_SOLVE_MAX_ENTRIES,
    IncrementalFairnessSolver,
    progressive_filling,
)
from repro.netsim.flows import Flow

LINKS = [f"l{i}" for i in range(6)]


_flow_ids = itertools.count()


def mk_flow(path, weight=1.0, gated=False, size=1e9):
    return Flow(size, tuple(path), f"f{next(_flow_ids)}", weight=weight, gated=gated)


def assert_matches_reference(solver, live, caps):
    solver.solve()
    got = solver.rates_by_id()
    want = progressive_filling(list(live.values()), caps)
    assert set(got) == set(want)
    for flow_id, rate in want.items():
        assert got[flow_id] == pytest.approx(rate, rel=1e-9, abs=1e-9)


# One churn operation: (kind, path selector, weight, capacity).
_op = st.tuples(
    st.sampled_from(["add", "remove", "gate", "ungate", "capacity"]),
    st.lists(st.sampled_from(LINKS), min_size=1, max_size=4, unique=True),
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=0.5, max_value=20.0),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=40), data=st.data())
def test_churn_matches_progressive_filling(ops, data):
    caps = {link: 10.0 for link in LINKS}
    solver = IncrementalFairnessSolver(caps)
    live = {}
    for kind, path, weight, capacity in ops:
        if kind == "add" or not live:
            flow = mk_flow(path, weight=weight)
            solver.add_flow(flow)
            live[flow.flow_id] = flow
        elif kind == "remove":
            flow_id = data.draw(st.sampled_from(sorted(live)))
            flow = live.pop(flow_id)
            solver.remove_flow(flow)
        elif kind in ("gate", "ungate"):
            flow_id = data.draw(st.sampled_from(sorted(live)))
            flow = live[flow_id]
            flow.gated = kind == "gate"
            solver.set_active(flow, flow.active)
        else:  # capacity
            link = path[0]
            caps[link] = capacity
            solver.set_capacity(link, capacity)
        assert_matches_reference(solver, live, caps)


def test_empty_solver_solves_to_nothing():
    solver = IncrementalFairnessSolver({"l0": 10.0})
    changed, rates = solver.solve()
    assert changed.size == 0
    assert solver.rates_by_id() == {}
    assert solver.link_loads() == {}


def test_changed_slots_are_only_the_moved_rates():
    caps = {"l0": 10.0, "l1": 10.0}
    solver = IncrementalFairnessSolver(caps)
    f0 = mk_flow(["l0"])
    f1 = mk_flow(["l1"])
    solver.add_flow(f0)
    solver.add_flow(f1)
    changed, rates = solver.solve()
    assert len(changed) == 2  # both went 0 -> 10
    # A third flow on l1 halves f1's rate but leaves f0 untouched.
    f2 = mk_flow(["l1"])
    solver.add_flow(f2)
    changed, rates = solver.solve()
    moved = {solver._slots[int(s)].flow_id for s in changed}
    assert moved == {f1.flow_id, f2.flow_id}
    assert solver.rates_by_id()[f0.flow_id] == pytest.approx(10.0)
    assert solver.rates_by_id()[f1.flow_id] == pytest.approx(5.0)


def test_gated_flow_gets_zero_and_share_returns():
    caps = {"l0": 9.0}
    solver = IncrementalFairnessSolver(caps)
    flows = [mk_flow(["l0"]) for _ in range(3)]
    for f in flows:
        solver.add_flow(f)
    solver.solve()
    assert solver.rates_by_id()[flows[0].flow_id] == pytest.approx(3.0)
    flows[0].gated = True
    solver.set_active(flows[0], flows[0].active)
    solver.solve()
    rates = solver.rates_by_id()
    assert rates[flows[0].flow_id] == 0.0
    assert rates[flows[1].flow_id] == pytest.approx(4.5)


def test_capacity_change_applies_immediately():
    solver = IncrementalFairnessSolver({"l0": 10.0})
    flow = mk_flow(["l0"])
    solver.add_flow(flow)
    solver.solve()
    solver.set_capacity("l0", 4.0)
    solver.solve()
    assert solver.rates_by_id()[flow.flow_id] == pytest.approx(4.0)
    assert solver.capacity("l0") == pytest.approx(4.0)


def test_compaction_reclaims_tombstones_and_slots():
    caps = {link: 10.0 for link in LINKS}
    solver = IncrementalFairnessSolver(caps)
    doomed = [mk_flow(LINKS[:3]) for _ in range(60)]
    keeper = mk_flow(["l0"])
    for f in doomed:
        solver.add_flow(f)
    solver.add_flow(keeper)
    solver.solve()
    rebuilds_before = solver.full_rebuilds
    for f in doomed:
        solver.remove_flow(f)
    # 180 dead incidence entries vs 1 live: the next solve must compact.
    solver.solve()
    assert solver.full_rebuilds == rebuilds_before + 1
    assert solver._dead_nnz == 0
    assert solver._nnz == 1
    assert solver.rates_by_id() == {keeper.flow_id: pytest.approx(10.0)}
    # Freed slots are reusable after compaction.
    fresh = mk_flow(["l1"])
    solver.add_flow(fresh)
    solver.solve()
    assert solver.rates_by_id()[fresh.flow_id] == pytest.approx(10.0)


def test_delta_counters_track_updates():
    solver = IncrementalFairnessSolver({"l0": 10.0, "l1": 10.0})
    f0, f1 = mk_flow(["l0"]), mk_flow(["l1"])
    solver.add_flow(f0)
    solver.add_flow(f1)
    solver.solve()
    assert solver.last_delta == 2
    solver.remove_flow(f0)
    solver.set_capacity("l1", 5.0)
    solver.solve()
    assert solver.last_delta == 2
    assert solver.delta_updates == 4
    assert solver.delta_flows_total == 4
    solver.solve()
    assert solver.last_delta == 0


def test_unknown_link_raises():
    solver = IncrementalFairnessSolver({"l0": 10.0})
    with pytest.raises(KeyError):
        solver.add_flow(mk_flow(["nope"]))


def test_link_loads_and_utilization_reflect_last_solve():
    solver = IncrementalFairnessSolver({"l0": 10.0, "l1": 20.0})
    solver.add_flow(mk_flow(["l0", "l1"]))
    solver.solve()
    assert solver.link_loads() == {
        "l0": pytest.approx(10.0),
        "l1": pytest.approx(10.0),
    }
    util = solver.link_utilization()
    assert util["l0"] == pytest.approx(1.0)
    assert util["l1"] == pytest.approx(0.5)


def test_solve_returns_an_int64_array_on_every_path():
    """Skipped, empty, deactivated-only, scalar and vectorized solves all
    hand the engine the same type: a sorted ``int64`` array of slots."""
    caps = {link: 10.0 for link in LINKS}
    solver = IncrementalFairnessSolver(caps)
    seen = {}

    def solve(path):
        changed, rates = solver.solve()
        assert isinstance(changed, np.ndarray) and changed.dtype == np.int64
        assert changed.tolist() == sorted(changed.tolist())
        assert rates is solver._rates
        seen[path] = changed.size

    solve("empty")
    few = [mk_flow(LINKS[:2]) for _ in range(3)]
    solver.add_flows(few)
    solve("scalar")
    assert solver.scalar_solves == 1
    solve("skipped")
    assert solver.solves_skipped == 1
    many = [mk_flow(LINKS[:3]) for _ in range(SCALAR_SOLVE_MAX_ENTRIES)]
    solver.add_flows(many)
    solve("vectorized")
    assert solver.scalar_solves == 1  # 3 x 96 live entries: past the cut
    many[0].gated = True
    solver.set_active(many[0], many[0].active)
    solve("vectorized+deactivated")
    solver.remove_flows(few + many)
    solve("deactivated-only")
    assert seen == {
        "empty": 0,
        "scalar": 3,
        "skipped": 0,
        "vectorized": 3 + SCALAR_SOLVE_MAX_ENTRIES,
        # the gated flow drops to 0 and the other 98 split its share
        "vectorized+deactivated": 3 + SCALAR_SOLVE_MAX_ENTRIES,
        "deactivated-only": 2 + SCALAR_SOLVE_MAX_ENTRIES,
    }
