"""Background traffic: fair-share flows and capacity occupation."""

import pytest

from repro.netsim.background import BackgroundTrafficManager
from repro.netsim.engine import FlowSimulator
from repro.netsim.topology import Topology
from repro.netsim.units import gbps


def rate_of(sim, flow):
    sim._ensure_rates()
    return flow.rate


@pytest.fixture
def sim():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", gbps(100))
    return FlowSimulator(topo)


def test_fig7_weight_semantics(sim):
    """A 75G background flow against one tenant flow leaves it 25G."""
    bg = BackgroundTrafficManager(sim)
    bg.start(["a->b"], 75.0)
    tenant = sim.add_flow(1e9, ["a->b"])
    assert rate_of(sim, tenant) * 8 / 1e9 == pytest.approx(25.0)


def test_stop_restores_bandwidth(sim):
    bg = BackgroundTrafficManager(sim)
    handle = bg.start(["a->b"], 75.0)
    tenant = sim.add_flow(1e9, ["a->b"])
    assert rate_of(sim, tenant) < gbps(100) / 2
    bg.stop(handle)
    assert rate_of(sim, tenant) == pytest.approx(gbps(100))
    assert not handle.active


def test_stop_all(sim):
    bg = BackgroundTrafficManager(sim)
    handles = [bg.start(["a->b"], 20.0), bg.start(["a->b"], 20.0)]
    for handle in handles:
        bg.stop(handle)
    assert bg.loaded_links() == {}


def test_offered_rate_must_be_positive(sim):
    bg = BackgroundTrafficManager(sim)
    with pytest.raises(ValueError):
        bg.start(["a->b"], 0.0)


def test_occupy_reduces_capacity_exactly(sim):
    """The Figure 7 model: 75G CBR load leaves 25G available."""
    bg = BackgroundTrafficManager(sim)
    bg.occupy("a->b", 75.0)
    tenant = sim.add_flow(1e9, ["a->b"])
    assert rate_of(sim, tenant) == pytest.approx(gbps(25))


def test_occupy_cannot_exceed_capacity(sim):
    bg = BackgroundTrafficManager(sim)
    with pytest.raises(ValueError):
        bg.occupy("a->b", 150.0)


def test_switch_agent_report(sim):
    bg = BackgroundTrafficManager(sim)
    bg.start(["a->b"], 75.0)
    bg.occupy("a->b", 10.0)
    loads = bg.loaded_links()
    assert loads["a->b"] == pytest.approx(85.0)
    assert bg.report_persistent_flows(threshold_gbps=50.0) == ["a->b"]
    assert bg.report_persistent_flows(threshold_gbps=90.0) == []
