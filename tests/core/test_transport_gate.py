"""Traffic gating mechanism (TS windows) tests."""

import pytest

from repro.core.transport import TrafficGateManager, WindowSchedule
from repro.netsim.engine import FlowSimulator
from repro.netsim.topology import Topology
from repro.telemetry import TelemetryHub


@pytest.fixture
def sim():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", 8.0)
    return FlowSimulator(topo)


# -- WindowSchedule -------------------------------------------------------------
def test_schedule_validation():
    with pytest.raises(ValueError):
        WindowSchedule(period=0.0, open_intervals=())
    with pytest.raises(ValueError):
        WindowSchedule(period=1.0, open_intervals=((0.5, 0.2),))
    with pytest.raises(ValueError):
        WindowSchedule(period=1.0, open_intervals=((0.0, 0.6), (0.5, 0.9)))


def test_is_open_within_period():
    s = WindowSchedule(period=1.0, open_intervals=((0.25, 0.75),))
    assert not s.is_open(0.0)
    assert s.is_open(0.5)
    assert not s.is_open(0.9)
    assert s.is_open(1.5)  # wraps


def test_phase_offset():
    s = WindowSchedule(period=1.0, open_intervals=((0.0, 0.5),), t0=0.25)
    assert s.is_open(0.3)
    assert not s.is_open(0.8)


def test_next_toggle():
    s = WindowSchedule(period=1.0, open_intervals=((0.25, 0.75),))
    assert s.next_toggle(0.0) == pytest.approx(0.25)
    assert s.next_toggle(0.3) == pytest.approx(0.75)
    assert s.next_toggle(0.8) == pytest.approx(1.25)


# -- TrafficGateManager ---------------------------------------------------------
def closed_then_open(period=1.0, open_from=0.5):
    return WindowSchedule(period=period, open_intervals=((open_from, period),))


def test_flow_registered_while_closed_is_gated(sim):
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    gates.set_schedule("app", closed_then_open())
    flow = sim.add_flow(4.0, ["a->b"], job_id="app")
    gates.register([flow])
    assert flow.gated
    sim.run()
    # gated for 0.5 s, then 4 bytes at 8 B/s -> completes at 1.0
    assert flow.end_time == pytest.approx(1.0)


def test_flow_of_unscheduled_app_unaffected(sim):
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    gates.set_schedule("app", closed_then_open())
    flow = sim.add_flow(8.0, ["a->b"], job_id="other")
    gates.register([flow])
    assert not flow.gated
    sim.run()
    assert flow.end_time == pytest.approx(1.0)


def test_gating_toggles_mid_flight(sim):
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    # open [0, 0.5), closed [0.5, 1.0)
    gates.set_schedule(
        "app", WindowSchedule(period=1.0, open_intervals=((0.0, 0.5),))
    )
    flow = sim.add_flow(8.0, ["a->b"], job_id="app")
    gates.register([flow])
    sim.run()
    # 4 bytes in [0,0.5), blocked [0.5,1.0), 4 bytes in [1.0,1.5)
    assert flow.end_time == pytest.approx(1.5)
    assert gates.gate_transitions >= 2


def test_clearing_schedule_releases_flows(sim):
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    gates.set_schedule("app", closed_then_open(period=100.0, open_from=99.0))
    flow = sim.add_flow(8.0, ["a->b"], job_id="app")
    gates.register([flow])
    assert flow.gated
    gates.set_schedule("app", None)
    assert not flow.gated
    sim.run()
    assert flow.end_time == pytest.approx(1.0)


def test_ticker_sleeps_when_no_live_flows(sim):
    """The simulator must drain even with a schedule installed."""
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    gates.set_schedule("app", closed_then_open())
    flow = sim.add_flow(4.0, ["a->b"], job_id="app")
    gates.register([flow])
    t = sim.run()  # must terminate (ticker stops once the flow is done)
    assert flow.completed
    assert t < 10.0


def test_gate_for_facade(sim):
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    gates.set_schedule("app", closed_then_open())
    gate = gates.gate_for("app")
    flow = sim.add_flow(4.0, ["a->b"], job_id="app")
    gate.register([flow])
    assert flow.gated


def test_schedule_of(sim):
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    schedule = closed_then_open()
    gates.set_schedule("app", schedule)
    assert gates.schedule_of("app") is schedule
    assert gates.schedule_of("ghost") is None


# -- no per-flow state: the engine is asked who is in the network -----------------
def two_link_sim():
    topo = Topology()
    for node in "abc":
        topo.add_node(node)
    topo.add_link("a", "b", 8.0)
    topo.add_link("b", "c", 8.0)
    return FlowSimulator(topo)


def test_schedule_installed_after_injection_gates_exactly_the_apps_flows():
    sim = two_link_sim()
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    mine = sim.add_flows([(64.0, ["a->b"], 0), (64.0, ["b->c"], 1)], job_id="app")
    gates.register(mine)  # no schedule yet: nothing to do, nothing kept
    other = sim.add_flow(64.0, ["a->b"], job_id="other")
    background = sim.add_flow(64.0, ["b->c"], job_id="background")
    unowned = sim.add_flow(64.0, ["b->c"])
    done = sim.add_flow(1.0, ["a->b"], job_id="app")
    cancelled = sim.add_flow(64.0, ["a->b"], job_id="app")
    sim.run(until=1.0)
    assert done.completed
    sim.cancel_flow(cancelled)

    gates.set_schedule("app", closed_then_open(period=100.0, open_from=50.0))
    assert [f.gated for f in mine] == [True, True]
    assert not (other.gated or background.gated or unowned.gated)
    # Flows that already left the network are not re-gated: the manager
    # holds no flow, so there is nothing stale to re-gate.
    assert not (done.gated or cancelled.gated)
    assert gates.gate_transitions == 2

    gates.set_schedule("app", None)
    assert [f.gated for f in mine] == [False, False]
    sim.run()
    assert all(f.completed for f in mine + [other, background, unowned])


def test_window_toggles_skip_flows_that_left_meanwhile():
    sim = two_link_sim()
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    # open [0, 1), closed [1, 2), ...
    gates.set_schedule(
        "app", WindowSchedule(period=2.0, open_intervals=((0.0, 1.0),))
    )
    quick = sim.add_flow(4.0, ["a->b"], job_id="app")   # done at 0.5
    doomed = sim.add_flow(64.0, ["b->c"], job_id="app")
    slow = sim.add_flow(12.0, ["b->c"], job_id="app")
    gates.register([quick, doomed, slow])
    sim.schedule(0.75, lambda: sim.cancel_flow(doomed))
    sim.run(until=1.5)
    assert quick.completed and not quick.gated
    assert not doomed.gated
    assert slow.gated
    assert gates.gate_transitions == 1
    sim.run()
    assert slow.completed


def test_gate_holds_no_flows():
    sim = two_link_sim()
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    gates.set_schedule("app", closed_then_open())
    gates.register(sim.add_flows([(4.0, ["a->b"], c) for c in range(3)], job_id="app"))
    sim.run()
    held = [
        value
        for value in vars(gates).values()
        if isinstance(value, (dict, set, list)) and value
    ]
    assert held == [{"app": gates.schedule_of("app")}]


def test_p2p_flows_are_gated():
    from repro.cluster.specs import testbed_cluster
    from repro.core.deployment import MccsDeployment
    from repro.netsim.units import MB

    cluster = testbed_cluster()
    dep = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    client = dep.connect("app")
    comm = client.adopt_communicator(dep.create_communicator("app", gpus).comm_id)
    dep.set_traffic_schedule(
        "app", WindowSchedule(period=1.0, open_intervals=((0.5, 1.0),))
    )
    done = client.send_recv(comm, 0, 2, 4 * MB)
    dep.run(until=0.25)
    (flow,) = cluster.sim.active_flows()
    assert flow.gated and flow.tags["p2p"]
    dep.run()
    assert done.fired
    assert cluster.sim.now > 0.5
