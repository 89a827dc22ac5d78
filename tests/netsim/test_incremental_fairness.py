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


_replay_op = st.one_of(
    st.tuples(
        st.just("add"),
        st.lists(st.sampled_from(LINKS), min_size=1, max_size=4, unique=True),
        st.sampled_from([0.5, 1.0, 3.0]),
    ),
    st.tuples(st.just("replay"), st.integers(0, 63), st.none()),
    st.tuples(st.sampled_from(["remove", "gate"]), st.integers(0, 63), st.none()),
    st.tuples(st.just("capacity"), st.sampled_from(LINKS), st.sampled_from([5.0, 10.0, 20.0])),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_replay_op, min_size=1, max_size=40))
def test_remembered_allocations_equal_a_fresh_solve(ops):
    """A long-lived solver answers replayed live sets from its memo; a
    freshly built one (empty memo) fed the same live flows in the same
    order is the oracle, to the bit, for rates and bottlenecks."""
    caps = {link: 10.0 for link in LINKS}
    solver = IncrementalFairnessSolver(caps)
    live = []  # insertion order = the solver's incidence order
    history = []  # every earlier live set, as (path, weight, gated)
    for kind, arg, value in ops:
        if kind == "add":
            live.append(mk_flow(arg, weight=value))
            solver.add_flow(live[-1])
        elif kind == "capacity":
            caps[arg] = value
            solver.set_capacity(arg, value)
        elif kind == "replay" and history:
            solver.remove_flows(live)
            live = [
                mk_flow(path, weight=weight, gated=gated)
                for path, weight, gated in history[arg % len(history)]
            ]
            solver.add_flows(live)
        elif kind in ("remove", "gate") and live:
            flow = live[arg % len(live)]
            if kind == "remove":
                live.remove(flow)
                solver.remove_flow(flow)
            else:
                flow.gated = not flow.gated
                solver.set_active(flow, flow.active)
        solver.solve()
        oracle = IncrementalFairnessSolver(caps)
        oracle.add_flows(live)
        oracle.solve()
        assert solver.rates_by_id() == oracle.rates_by_id()
        for flow in live:
            assert solver.bottleneck_of(flow.flow_id) == oracle.bottleneck_of(
                flow.flow_id
            )
        history.append([(f.path, f.weight, f.gated) for f in live])


def test_replay_hits_the_memo_and_a_capacity_change_misses_it():
    solver = IncrementalFairnessSolver({link: 10.0 for link in LINKS})

    def replay():
        flows = [mk_flow(LINKS[:2]), mk_flow(LINKS[1:3], weight=3.0)]
        solver.add_flows(flows)
        changed, _ = solver.solve()
        assert changed.size == 2
        rates = solver.rates_by_id()
        solver.remove_flows(flows)
        changed, _ = solver.solve()
        assert changed.size == 2  # both dropped back to 0
        return [rates[f.flow_id] for f in flows]

    first = replay()
    assert solver.memo_hits == 0
    assert replay() == first
    assert (solver.memo_hits, solver.scalar_solves) == (1, 2)
    solver.set_capacity("l1", 5.0)
    degraded = replay()
    assert degraded != first
    assert (solver.memo_hits, solver.scalar_solves) == (1, 3)
    solver.set_capacity("l1", 10.0)
    assert replay() == first
    assert replay() == first
    assert (solver.memo_hits, solver.scalar_solves) == (2, 5)
    # A capacity override (the interference model) bypasses the memo.
    flows = [mk_flow(LINKS[:2]), mk_flow(LINKS[1:3], weight=3.0)]
    solver.add_flows(flows)
    solver.solve(np.full(len(LINKS), 5.0))
    rates = solver.rates_by_id()
    assert [rates[f.flow_id] for f in flows] == [r / 2 for r in first]
    assert (solver.memo_hits, solver.scalar_solves) == (2, 6)


def test_gated_flow_has_no_bottleneck():
    """``bottleneck_of`` is None for a flow gated when the last allocation
    ran, not the link that froze it before it was gated."""
    solver = IncrementalFairnessSolver({"a": 10.0, "b": 10.0})
    f1 = mk_flow(["a"])
    f2 = mk_flow(["a", "b"])
    solver.add_flows([f1, f2])
    solver.solve()
    assert solver.bottleneck_of(f2.flow_id) == "a"
    f2.gated = True
    solver.set_active(f2, f2.active)
    solver.solve()
    assert solver.rates_by_id()[f2.flow_id] == 0.0
    assert solver.bottleneck_of(f2.flow_id) is None
    assert solver.bottleneck_of(f1.flow_id) == "a"


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
