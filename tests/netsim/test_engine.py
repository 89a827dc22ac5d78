"""Discrete-event fluid simulator tests."""

import pytest

import repro.netsim.flows as flows_mod
from repro.netsim.engine import FlowSimulator
from repro.netsim.errors import SimulationError
from repro.netsim.flows import Flow
from repro.netsim.topology import Topology


def line_topo(cap=8.0):
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_node("c")
    topo.add_link("a", "b", cap)
    topo.add_link("b", "c", cap)
    return topo


def test_single_flow_completion_time():
    sim = FlowSimulator(line_topo(cap=8.0))
    flow = sim.add_flow(16.0, ["a->b"])
    t = sim.run()
    assert t == pytest.approx(2.0)
    assert flow.completed and flow.fct() == pytest.approx(2.0)


def test_two_flows_share_then_speed_up():
    # Two equal flows share 8 B/s; after the first half completes... they
    # are equal so they finish together at t = 2*size/cap.
    sim = FlowSimulator(line_topo())
    f1 = sim.add_flow(8.0, ["a->b"])
    f2 = sim.add_flow(8.0, ["a->b"])
    t = sim.run()
    assert t == pytest.approx(2.0)
    assert f1.end_time == f2.end_time == pytest.approx(2.0)


def test_staggered_flow_gets_residual():
    sim = FlowSimulator(line_topo())
    f1 = sim.add_flow(8.0, ["a->b"])
    # f2 arrives at t=0.5 (f1 has 4 bytes left); they share at 4 B/s, so
    # f1 finishes its remaining 4 bytes at t=1.5.
    sim.schedule(0.5, lambda: sim.add_flow(8.0, ["a->b"], tags={"late": True}))
    sim.run()
    assert f1.end_time == pytest.approx(1.5)


def test_completion_callback_fires_with_time():
    sim = FlowSimulator(line_topo())
    seen = []
    sim.add_flow(8.0, ["a->b"], on_complete=lambda f, t: seen.append((f.flow_id, t)))
    sim.run()
    assert seen and seen[0][1] == pytest.approx(1.0)


def test_events_and_flows_interleave():
    sim = FlowSimulator(line_topo())
    order = []
    sim.add_flow(8.0, ["a->b"], on_complete=lambda f, t: order.append("flow"))
    sim.schedule(0.5, lambda: order.append("early"))
    sim.schedule(2.0, lambda: order.append("late"))
    sim.run()
    assert order == ["early", "flow", "late"]


def test_run_until_stops_clock_exactly():
    sim = FlowSimulator(line_topo())
    flow = sim.add_flow(8.0, ["a->b"])
    t = sim.run(until=0.25)
    assert t == pytest.approx(0.25)
    assert flow.remaining == pytest.approx(6.0)
    sim.run()
    assert flow.end_time == pytest.approx(1.0)


def test_cancel_flow_frees_bandwidth():
    sim = FlowSimulator(line_topo())
    f1 = sim.add_flow(8.0, ["a->b"])
    f2 = sim.add_flow(8.0, ["a->b"])
    sim.schedule(0.5, lambda: sim.cancel_flow(f1))
    sim.run()
    assert not f1.completed
    # f2: 2 bytes at 4 B/s by t=0.5, then 6 bytes at 8 B/s -> t=1.25
    assert f2.end_time == pytest.approx(1.25)


def test_gate_and_release():
    sim = FlowSimulator(line_topo())
    f = sim.add_flow(8.0, ["a->b"], gated=True)
    sim.schedule(3.0, lambda: sim.gate_flow(f, False))
    sim.run()
    assert f.end_time == pytest.approx(4.0)


def test_gating_mid_flight():
    sim = FlowSimulator(line_topo())
    f = sim.add_flow(8.0, ["a->b"])
    sim.schedule(0.5, lambda: sim.gate_flow(f, True))
    sim.schedule(1.5, lambda: sim.gate_flow(f, False))
    sim.run()
    # 4 bytes by 0.5, paused 1s, remaining 4 bytes -> 2.0
    assert f.end_time == pytest.approx(2.0)


def test_permanently_gated_flow_raises_stall():
    sim = FlowSimulator(line_topo())
    f = sim.add_flow(8.0, ["a->b"], gated=True)
    sim.gate_flow(f, False)
    sim.gate_flow(f, True)
    f.gated = False  # active but rate stays 0? no - force recompute path:
    f.gated = True
    sim.run()  # gated flows are not "active"; quiescent run is fine
    assert not f.completed


def test_set_link_capacity_changes_rates():
    sim = FlowSimulator(line_topo(cap=8.0))
    f = sim.add_flow(8.0, ["a->b"])
    sim.schedule(0.5, lambda: sim.set_link_capacity("a->b", 2.0))
    sim.run()
    # 4 bytes at 8 B/s, then 4 bytes at 2 B/s -> 0.5 + 2 = 2.5
    assert f.end_time == pytest.approx(2.5)


def test_capacity_must_stay_positive():
    sim = FlowSimulator(line_topo())
    with pytest.raises(ValueError):
        sim.set_link_capacity("a->b", 0.0)
    with pytest.raises(KeyError):
        sim.set_link_capacity("ghost", 1.0)


def test_when_all_fires_after_last():
    sim = FlowSimulator(line_topo())
    f1 = sim.add_flow(8.0, ["a->b"])
    f2 = sim.add_flow(4.0, ["b->c"])
    times = []
    sim.when_all([f1, f2], times.append)
    sim.run()
    assert times == [pytest.approx(1.0)]


def test_when_all_with_no_pending_fires_immediately():
    sim = FlowSimulator(line_topo())
    f = sim.add_flow(8.0, ["a->b"])
    sim.run()
    times = []
    sim.when_all([f], times.append)
    sim.run()
    assert times == [pytest.approx(1.0)]


def test_when_all_preserves_existing_callbacks():
    sim = FlowSimulator(line_topo())
    order = []
    f = sim.add_flow(8.0, ["a->b"], on_complete=lambda fl, t: order.append("own"))
    sim.when_all([f], lambda t: order.append("all"))
    sim.run()
    assert order == ["own", "all"]


def test_call_in_negative_delay_rejected():
    sim = FlowSimulator(line_topo())
    with pytest.raises(ValueError):
        sim.call_in(-1.0, lambda: None)


def test_multipath_flows_do_not_interact():
    topo = Topology()
    for n in ("a", "b", "c", "d"):
        topo.add_node(n)
    topo.add_link("a", "b", 10.0)
    topo.add_link("c", "d", 10.0)
    sim = FlowSimulator(topo)
    f1 = sim.add_flow(10.0, ["a->b"])
    f2 = sim.add_flow(10.0, ["c->d"])
    sim.run()
    assert f1.end_time == f2.end_time == pytest.approx(1.0)


def test_interference_penalty_applies_on_shared_links():
    topo = line_topo(cap=10.0)
    sim = FlowSimulator(topo, interference_penalty=0.2)
    f1 = sim.add_flow(8.0, ["a->b"], job_id="jobA")
    f2 = sim.add_flow(8.0, ["a->b"], job_id="jobB")
    # effective capacity 8.0 shared by two flows -> 4.0 each -> t=2.0
    sim.run()
    assert f1.end_time == pytest.approx(2.0)
    assert f2.end_time == pytest.approx(2.0)


def test_interference_penalty_skips_single_tenant_links():
    sim = FlowSimulator(line_topo(cap=10.0), interference_penalty=0.2)
    f1 = sim.add_flow(10.0, ["a->b"], job_id="jobA")
    f2 = sim.add_flow(10.0, ["a->b"], job_id="jobA")  # same job
    sim.run()
    assert f1.end_time == pytest.approx(2.0)  # full 10.0 shared by 2


def test_interference_penalty_validation():
    with pytest.raises(ValueError):
        FlowSimulator(line_topo(), interference_penalty=1.0)
    with pytest.raises(ValueError):
        FlowSimulator(line_topo(), interference_penalty=-0.1)


def test_events_scheduled_in_past_clamp_to_now():
    sim = FlowSimulator(line_topo())
    sim.add_flow(8.0, ["a->b"])
    sim.run()
    fired = []
    sim.schedule(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [pytest.approx(1.0)]


def test_flow_counters():
    sim = FlowSimulator(line_topo())
    sim.add_flow(8.0, ["a->b"])
    sim.add_flow(8.0, ["b->c"])
    sim.run()
    assert sim.flows_completed == 2
    assert sim.rate_recomputations >= 1


# ----------------------------------------------------------------------
# per-simulator state: ids and caches do not depend on process history
# ----------------------------------------------------------------------
def _fixed_op_sequence(sim):
    """Adds, a batch, a cancel, a late add; returns every id it minted."""
    first = sim.add_flow(8.0, ["a->b"])
    batch = sim.add_flows([(4.0, ["a->b", "b->c"], None)] * 3)
    late = []
    sim.schedule(0.25, lambda: sim.cancel_flow(batch[0]))
    sim.schedule(0.5, lambda: late.append(sim.add_flow(2.0, ["b->c"])))
    sim.run()
    return [f.flow_id for f in [first, *batch, *late]]


def test_back_to_back_simulators_mint_identical_ids():
    first = FlowSimulator(line_topo())
    ids = _fixed_op_sequence(first)
    assert ids == ["flow0", "flow1", "flow2", "flow3", "flow4"]
    second = FlowSimulator(line_topo())
    assert _fixed_op_sequence(second) == ids
    assert second.perf_counters() == first.perf_counters()


def test_simulators_share_no_path_cache():
    one, two = FlowSimulator(line_topo()), FlowSimulator(line_topo())
    path = ("a->b", "b->c")
    flows = one.add_flows([(8.0, path, 0), (8.0, path, 1)])
    # One distinct-links tuple per route per simulator, handed to its flows.
    assert flows[0].links is flows[1].links is one._links_of_path[path]
    assert two._links_of_path == {}
    assert not hasattr(flows_mod, "_links_of_path")  # no process-wide cache
    # A directly constructed Flow still derives its own links.
    assert Flow(1.0, ("a->b", "a->b", "b->c")).links == path
