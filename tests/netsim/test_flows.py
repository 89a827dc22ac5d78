"""Flow object invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.engine import FlowSimulator
from repro.netsim.flows import Flow
from repro.netsim.topology import Topology


def test_flow_requires_positive_size():
    with pytest.raises(ValueError):
        Flow(size=0, path=("l",), flow_id="f")


def test_flow_requires_path():
    with pytest.raises(ValueError):
        Flow(size=1.0, path=(), flow_id="f")


def test_flow_requires_positive_weight():
    with pytest.raises(ValueError):
        Flow(size=1.0, path=("l",), flow_id="f", weight=0.0)


def test_flow_ids_unique():
    """A simulator numbers its own flows; two simulators, two sequences."""
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", 8.0)
    sim = FlowSimulator(topo)
    ids = [f.flow_id for f in sim.add_flows([(1.0, ["a->b"], c) for c in range(3)])]
    ids.append(sim.add_flow(1.0, ["a->b"]).flow_id)
    assert ids == ["flow0", "flow1", "flow2", "flow3"]
    assert FlowSimulator(topo).add_flow(1.0, ["a->b"]).flow_id == "flow0"


def test_initial_state():
    f = Flow(size=10.0, path=("l1", "l2"), flow_id="f")
    assert f.remaining == 10.0
    assert not f.completed
    assert f.active
    assert f.progress() == 0.0


def test_gated_flow_is_not_active():
    f = Flow(size=10.0, path=("l",), flow_id="f", gated=True)
    assert not f.active and not f.completed


def test_fct_requires_completion():
    f = Flow(size=10.0, path=("l",), flow_id="f")
    with pytest.raises(ValueError):
        f.fct()
    f.start_time = 1.0
    f.end_time = 3.5
    assert f.fct() == pytest.approx(2.5)


@given(st.floats(1.0, 1e9), st.floats(0.0, 1.0))
def test_progress_bounds(size, frac):
    f = Flow(size=size, path=("l",), flow_id="f")
    f.remaining = size * (1 - frac)
    assert 0.0 <= f.progress() <= 1.0 + 1e-9
    assert f.progress() == pytest.approx(frac, abs=1e-6)


def test_path_normalized_to_tuple():
    f = Flow(size=1.0, path=["l1", "l2"], flow_id="f")
    assert isinstance(f.path, tuple)


def test_flows_hash_by_identity():
    a = Flow(size=1.0, path=("l",), flow_id="f")
    b = Flow(size=1.0, path=("l",), flow_id="f")
    assert len({a, b}) == 2
