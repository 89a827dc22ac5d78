"""A time-window-gated (TS-preempted) flow sends nothing, so the causal
tracer does not count its tenant as a co-tenant while it is gated."""

from repro.netsim.engine import FlowSimulator
from repro.netsim.topology import Topology
from repro.telemetry.causal import CausalTracer

GBPS_100 = 12.5e9  # bytes/s


def traced_link():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", GBPS_100)
    sim = FlowSimulator(topo)
    tracer = CausalTracer(sim)
    trace = tracer.open(0.0, tenant="B", comm_id="c0", seq=0, kind="all_reduce", nbytes=1)
    sim.add_flow(8 * GBPS_100, ["a->b"], job_id="B", tags={"trace": trace})
    return sim, trace


def segments(trace):
    (record,) = trace.attempts[-1].flows.values()
    return [(seg.rate, seg.co_tenants) for seg in record.segments]


def test_a_gated_flow_is_not_a_co_tenant():
    sim, trace = traced_link()
    c = sim.add_flow(8 * GBPS_100, ["a->b"], job_id="C")
    sim.run(until=1.0)
    sim.gate_flow(c, True)
    sim.run(until=1.5)
    sim.gate_flow(c, False)
    sim.run(until=2.0)
    assert segments(trace) == [
        (GBPS_100 / 2, ("C",)),
        (GBPS_100, ()),
        (GBPS_100 / 2, ("C",)),
    ]


def test_a_flow_that_leaves_while_gated_leaves_its_tenant_counted_once():
    sim, trace = traced_link()
    gated = sim.add_flow(8 * GBPS_100, ["a->b"], job_id="C")
    sim.add_flow(8 * GBPS_100, ["a->b"], job_id="C")
    sim.run(until=1.0)
    sim.gate_flow(gated, True)
    sim.run(until=1.5)
    sim.cancel_flow(gated)
    sim.run(until=2.0)
    # C's other flow still shares the link after the gated one is cancelled.
    assert [co for _, co in segments(trace)] == [("C",), ("C",)]
