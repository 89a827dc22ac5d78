"""A link's load is the exact bytes its flows delivered, read on query.

``FlowSimulator.link_bytes()`` integrates each link's rate without a
sampler: rates are piecewise constant, so the bytes a link carried are
the bytes its flows delivered — a completed flow's size, a cancelled,
failed or still-present flow's ``size - remaining``.  Two properties over
random launch batches, gates, cancels and link faults:

* **conservation** — at quiescence each link's count is the sum of its
  flows' delivered bytes (``==`` when every delivered count is a whole
  number, to 1e-12 otherwise);
* **purity** — reading ``link_bytes()`` and ``hub.to_json()`` from an
  observer on every engine callback leaves every flow's end time and the
  engine's ``perf_counters()`` bit-equal to an unobserved run.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.netsim.engine import FlowSimulator, SimObserver
from repro.netsim.errors import LinkDownError
from repro.netsim.topology import Topology
from repro.telemetry import TelemetryHub

LINKS = 4


def line_topology(caps):
    topo = Topology()
    for i in range(LINKS + 1):
        topo.add_node(f"n{i}")
    for i, cap in enumerate(caps):
        topo.add_link(f"n{i}", f"n{i + 1}", cap)
    return topo


def link(i):
    return f"n{i}->n{i + 1}"


@st.composite
def scenario(draw):
    integral = draw(st.booleans())
    size = st.integers(1, 400) if integral else st.floats(0.5, 400.0)
    caps = [draw(st.floats(1.0, 50.0)) for _ in range(LINKS)]
    actions = []
    for _ in range(draw(st.integers(1, 12))):
        at = draw(st.floats(0.0, 8.0))
        kind = draw(st.sampled_from(["batch", "batch", "gate", "cancel", "fault"]))
        if kind == "batch":
            transfers = []
            for channel in range(draw(st.integers(1, 6))):
                start = draw(st.integers(0, LINKS - 1))
                end = draw(st.integers(start + 1, LINKS))
                path = [link(i) for i in range(start, end)]
                transfers.append((draw(size), path, channel))
            actions.append((at, kind, (transfers, draw(st.floats(0.5, 3.0)))))
        elif kind == "fault":
            outage = (draw(st.integers(0, LINKS - 1)), draw(st.floats(0.0, 2.0)))
            actions.append((at, kind, outage))
        else:
            actions.append((at, kind, draw(st.integers(0, 10_000))))
    return caps, actions


def replay(caps, actions, observer=None):
    sim = FlowSimulator(line_topology(caps))
    hub = TelemetryHub(sim)
    if observer is not None:
        sim.add_observer(observer(sim, hub))
    flows = []

    def act(kind, arg):
        if kind == "batch":
            transfers, weight = arg
            try:
                flows.extend(sim.add_flows(transfers, weight=weight))
            except LinkDownError:
                pass
        elif kind == "fault":
            index, outage = arg
            sim.fail_link(link(index))
            sim.call_in(outage, lambda: sim.restore_link(link(index)))
        elif sim.active_flow_count():
            live = sim.active_flows()
            flow = live[arg % len(live)]
            if kind == "cancel":
                sim.cancel_flow(flow)
            else:
                sim.gate_flow(flow, not flow.gated)

    for at, kind, arg in actions:
        sim.schedule(at, lambda kind=kind, arg=arg: act(kind, arg))
    sim.run()
    return sim, flows


def delivered(flow):
    return flow.size if flow.completed else flow.size - flow.remaining


@given(scenario())
@settings(max_examples=80, deadline=None)
def test_links_carry_exactly_what_their_flows_delivered(sc):
    caps, actions = sc
    sim, flows = replay(caps, actions)
    measured = sim.link_bytes()
    amounts = [delivered(flow) for flow in flows]
    whole = all(float(amount).is_integer() for amount in amounts)
    for i in range(LINKS):
        expected = math.fsum(
            amount for flow, amount in zip(flows, amounts) if link(i) in flow.links
        )
        got = measured.get(link(i), 0.0)
        if whole:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12)
    assert set(measured) <= {link(i) for i in range(LINKS)}


class Probe(SimObserver):
    """Reads the link view and the whole JSON export on every callback."""

    def __init__(self, sim, hub):
        self.sim, self.hub = sim, hub

    def probe(self, *_):
        self.sim.link_bytes()
        self.hub.to_json()

    on_flows_added = on_flows_completed = on_flow_cancelled = probe
    on_flow_failed = on_flow_gated = on_rates_changed = probe


@given(scenario())
@settings(max_examples=40, deadline=None)
def test_reading_the_link_view_changes_nothing(sc):
    caps, actions = sc
    plain, plain_flows = replay(caps, actions)
    probed, probed_flows = replay(caps, actions, observer=Probe)

    def outcome(flows):
        return [(f.flow_id, f.end_time, f.failed, f.remaining) for f in flows]

    assert outcome(probed_flows) == outcome(plain_flows)
    assert probed.perf_counters() == plain.perf_counters()
    assert probed.now == plain.now
    assert probed.link_bytes() == plain.link_bytes()


def test_compaction_folds_what_dead_flows_delivered():
    """Enough short flows that the solver purges their incidence entries:
    the folded totals keep every byte, cancelled remainders included."""
    sim = FlowSimulator(line_topology([8.0] * LINKS))
    path = [link(i) for i in range(LINKS)]
    for step in range(60):
        sim.run(until=step)
        sim.add_flow(3, path)
        victim = sim.add_flow(5, path)
        sim.run(until=step + 0.5)
        sim.cancel_flow(victim)
        sim.run()
    assert sim._solver.full_rebuilds > 1
    carried = sim.link_bytes()
    assert carried == {link(i): carried[link(0)] for i in range(LINKS)}
    # Each round: 3 bytes done, and 0.5 s at 4 B/s of the victim's 5.
    assert carried[link(0)] == 60 * (3 + 2)


def test_a_run_ends_with_its_last_flow():
    """No telemetry event outlives the traffic: a hub on the simulator
    leaves ``run()`` ending at the last completion."""
    sim = FlowSimulator(line_topology([8.0] * LINKS))
    TelemetryHub(sim)
    sim.add_flow(16, [link(0)])
    assert sim.run() == 2.0
    assert sim.link_bytes() == {link(0): 16.0}


def test_a_small_collective_shows_and_ends_the_run():
    """One 64 KiB AllReduce through a deployment: ``run()`` stops at the
    collective's end, so closed-loop op starts are the launch latency plus
    the collective apart, and the link view already holds its bytes."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("app")
    comm = client.create_communicator(list(cluster.gpus))
    for _ in range(2):
        op = client.all_reduce(comm, 64 * 1024)
        issued = cluster.sim.now
        assert deployment.run() == op.instance.end_time
        assert op.instance.issue_time == issued
    assert cluster.sim.link_bytes()
