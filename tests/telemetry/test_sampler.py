"""NetworkTelemetry: flow-lifecycle metrics and link-utilization series."""

import pytest

from repro.netsim.engine import FlowSimulator
from repro.netsim.topology import Topology
from repro.telemetry import MetricsRegistry, NetworkTelemetry


def line_topo(cap=8.0):
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_node("c")
    topo.add_link("a", "b", cap)
    topo.add_link("b", "c", cap)
    return topo


def make_telemetry(**kwargs):
    sim = FlowSimulator(line_topo())
    net = NetworkTelemetry(sim, MetricsRegistry(), **kwargs)
    return sim, net


def test_sample_interval_must_be_positive():
    sim = FlowSimulator(line_topo())
    with pytest.raises(ValueError):
        NetworkTelemetry(sim, MetricsRegistry(), sample_interval=0.0)


def test_flow_lifecycle_counters():
    sim, net = make_telemetry()
    sim.add_flow(8.0, ["a->b"], job_id="A")
    sim.add_flow(16.0, ["a->b", "b->c"], job_id="B")
    sim.run()
    counters = net.metrics.counters()
    assert counters["mccs_flows_total"].value(job="A") == 1
    assert counters["mccs_flows_completed_total"].value(job="A") == 1
    assert counters["mccs_bytes_moved_total"].value(job="A") == 8.0
    assert counters["mccs_bytes_moved_total"].value(job="B") == 16.0
    assert net.metrics.gauges()["mccs_active_flows"].value() == 0
    hist = net.metrics.histograms()["mccs_flow_duration_seconds"]
    assert hist.count(job="A") == 1
    assert hist.count(job="B") == 1


def test_preemptions_counted_once_per_gate_closure():
    sim, net = make_telemetry()
    flow = sim.add_flow(8.0, ["a->b"], job_id="A")
    sim.gate_flow(flow, True)
    sim.gate_flow(flow, True)  # no transition: must not double-count
    sim.gate_flow(flow, False)
    sim.gate_flow(flow, True)
    sim.gate_flow(flow, False)
    sim.run()
    preemptions = net.metrics.counters()["mccs_flow_preemptions_total"]
    assert preemptions.value(job="A") == 2


def test_periodic_sampler_records_link_series_and_stops():
    sim, net = make_telemetry(sample_interval=0.25)
    sim.add_flow(16.0, ["a->b"], job_id="A")  # drains in 2 s at 8 B/s
    end = sim.run()  # must terminate: the ticker is self-stopping
    assert end == pytest.approx(2.0)
    assert "a->b" in net.sampled_links()
    series = net.link_series("a->b")
    assert len(series) >= 4
    times = [t for t, _ in series]
    assert times == sorted(times)
    # The single flow saturates the link while it is active.
    assert all(u == pytest.approx(1.0) for _, u in series)
    assert net.link_series("missing") == []


def test_sampler_restarts_for_later_traffic():
    sim, net = make_telemetry(sample_interval=0.25)
    sim.add_flow(8.0, ["a->b"])  # done at t=1
    sim.schedule(5.0, lambda: sim.add_flow(8.0, ["b->c"]))  # t=5..6
    sim.run()
    assert "b->c" in net.sampled_links()
    assert all(t >= 5.0 for t, _ in net.link_series("b->c"))


def test_link_series_is_bounded():
    sim, net = make_telemetry(sample_interval=0.25, max_samples=3)
    sim.add_flow(32.0, ["a->b"])  # 4 s of traffic -> ~16 ticks
    sim.run()
    assert len(net.link_series("a->b")) == 3
    assert net.evicted_samples("a->b") > 0
    assert net.evicted_samples() >= net.evicted_samples("a->b")
    assert net.evicted_samples("missing") == 0


def test_sample_now_and_snapshot():
    sim, net = make_telemetry()
    sim.add_flow(8.0, ["a->b"], job_id="A")
    utilization = net.sample_now()
    assert utilization["a->b"] == pytest.approx(1.0)
    snap = net.utilization_snapshot()
    assert snap["a->b"]["samples"] == [[0.0, 1.0]]
    assert snap["a->b"]["evicted"] == 0


def test_program_cache_gauges_need_a_provider():
    _, net = make_telemetry()
    assert net.publish_program_cache() is None
    assert "mccs_program_cache_hits" not in net.metrics.gauges()


def test_program_cache_gauges_published_from_provider():
    _, net = make_telemetry()
    stats = {"size": 3, "hits": 7, "misses": 2, "evictions": 1}
    net.set_program_cache_provider(lambda: dict(stats))
    assert net.publish_program_cache() == stats
    gauges = net.metrics.gauges()
    for name, value in stats.items():
        assert gauges[f"mccs_program_cache_{name}"].value() == value
    # provider is re-read on every publish
    stats["hits"] = 9
    net.publish_program_cache()
    assert net.metrics.gauges()["mccs_program_cache_hits"].value() == 9


# -- batch-first observer contract ------------------------------------------------
def _mixed_batches():
    """(size, path, channel) per flow for two jobs; fractional sizes, so
    byte sums depend on the order they are accumulated in."""
    return [
        ("A", [(8.1, ["a->b"], 0), (8.1, ["a->b"], 1), (0.7, ["a->b", "b->c"], 0)]),
        ("B", [(2.3, ["b->c"], 0), (8.1, ["a->b"], 0)]),
        (None, [(1.9, ["b->c"], None)]),
    ]


def test_batch_delivery_equals_one_by_one():
    """One ``on_flows_added`` / ``on_flows_completed`` call per batch must
    leave exactly the series that per-flow delivery leaves."""
    batched_sim, batched = make_telemetry()
    single_sim, single = make_telemetry()
    for job, transfers in _mixed_batches():
        batched_sim.add_flows(transfers, job_id=job)
        for size, path, _channel in transfers:
            single_sim.add_flow(size, path, job_id=job)
    victim = 3
    for sim in (batched_sim, single_sim):
        sim.run(until=0.1)
        flows = sim.active_flows()
        sim.cancel_flow(flows[victim])
        sim.fail_flow(flows[victim + 1], RuntimeError("link down"))
        sim.run()
    assert batched.metrics.snapshot() == single.metrics.snapshot()
    moved = batched.metrics.counters()["mccs_bytes_moved_total"]
    assert moved.value(job="A") == 8.1 + 8.1 + 0.7
    assert moved.value(job="none") == 1.9


def test_observer_sees_one_call_per_batch():
    from repro.netsim.engine import SimObserver

    calls = []

    class Spy(SimObserver):
        def on_flows_added(self, flows, now):
            calls.append(("added", [f.flow_id for f in flows], now))

        def on_flows_completed(self, flows, now):
            calls.append(("completed", [f.flow_id for f in flows], now))

    sim = FlowSimulator(line_topo())
    sim.add_observer(Spy())
    sim.add_flows([(8.0, ["a->b"], 0), (8.0, ["b->c"], 1)], job_id="A")
    sim.add_flow(4.0, ["a->b"], job_id="B")
    sim.run()
    assert calls == [
        ("added", ["flow0", "flow1"], 0.0),
        ("added", ["flow2"], 0.0),
        # flow1 has b->c to itself, flow2 shares a->b with flow0: both
        # finish at t=1 and arrive as one batch; flow0 follows alone.
        ("completed", ["flow1", "flow2"], 1.0),
        ("completed", ["flow0"], 1.5),
    ]
    assert not hasattr(SimObserver, "on_flow_added")
    assert not hasattr(SimObserver, "on_flow_completed")
