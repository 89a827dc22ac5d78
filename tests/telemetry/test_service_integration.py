"""Telemetry wired through the full service: spans, metrics, traces.

These tests drive real deployments (shim -> frontend -> proxy ->
transport -> netsim) and assert on what lands in the hub — including the
acceptance scenario: the Figure 4 reconfiguration barrier visible as a
span with intact parent/child links.  Spans are read off ``hub.spans``,
the window rendered from the causal trees and the session records.
"""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.netsim.units import MB
from repro.telemetry import (
    EVENT_BARRIER_RESOLVED,
    EVENT_FIRST_FLOW_START,
    EVENT_HELD,
    EVENT_RANK_APPLIED,
    EVENT_RANK_LAUNCH,
)


def make_env(world=3, **kwargs):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, **kwargs)
    gpus = [cluster.hosts[h % 4].gpus[h // 4] for h in range(world)]
    comm = deployment.create_communicator("app", gpus)
    client = deployment.connect("app")
    handle = client.adopt_communicator(comm.comm_id)
    return cluster, deployment, comm, client, handle


def collective_roots(hub):
    return [s for s in hub.spans if s.category == "collective"]


def children_of(hub, span):
    return [s for s in hub.spans if s.parent_id == span.span_id]


def event_times(span, name):
    return [t for event, t, _ in span.events if event == name]


def test_collective_span_tree():
    """One collective = one root span + queued/launch/network children."""
    cluster, deployment, comm, client, handle = make_env()
    op = client.all_reduce(handle, 8 * MB)
    deployment.run()
    hub = deployment.telemetry()

    roots = collective_roots(hub)
    assert len(roots) == 1
    root = roots[0]
    assert root.end is not None
    assert root.attrs["app"] == "app"
    assert root.attrs["seq"] == 0
    assert root.end == pytest.approx(op.instance.end_time)
    assert root.attrs["trace"] == op.instance.trace.trace_id

    children = children_of(hub, root)
    assert [c.name for c in children] == ["queued", "launch", "network"]
    assert all(c.end is not None for c in children)
    # Phases tile the root span: queued ends where launch begins, etc.
    assert children[0].end == pytest.approx(children[1].start)
    assert children[1].end == pytest.approx(children[2].start)
    assert children[2].end == pytest.approx(root.end)

    # Point events: every rank launched, flows started and drained.
    assert len(event_times(root, EVENT_RANK_LAUNCH)) == 3
    [first_flow] = event_times(root, EVENT_FIRST_FLOW_START)
    assert first_flow == pytest.approx(children[2].start)


def test_collective_counters_and_ipc_histogram():
    cluster, deployment, comm, client, handle = make_env()
    for _ in range(3):
        client.all_reduce(handle, 8 * MB)
    deployment.run()
    metrics = deployment.telemetry().metrics
    issued = metrics.counters()["mccs_collectives_issued_total"]
    completed = metrics.counters()["mccs_collectives_completed_total"]
    assert issued.value(app="app", kind="all_reduce") == 3
    assert completed.value(app="app", kind="all_reduce") == 3
    durations = metrics.histograms()["mccs_collective_duration_seconds"]
    assert durations.count(app="app") == 3
    assert durations.mean(app="app") > 0
    # The shim->service hop is measured in wall-clock time.
    ipc = metrics.histograms()["mccs_ipc_hop_seconds"]
    assert ipc.count(request="CollectiveRequest") == 3
    assert metrics.counters()["mccs_shim_calls_total"].value(
        app="app", call="all_reduce"
    ) == 3


def test_reconfig_barrier_span_integrity():
    """The acceptance scenario: a reconfig during held collectives leaves
    a root reconfig span with a barrier child, and the held collective's
    span records the hold."""
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    # Ranks 1,2 hear about the reconfig first and hold; rank 0 launches
    # the next collective, forcing a real barrier stall (Figure 4).
    deployment.reconfigure(comm.comm_id, ring=[2, 1, 0], delays=[0.010, 0.0, 0.0])
    deployment.run(until=cluster.sim.now + 0.001)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    hub = deployment.telemetry()

    reconfigs = [
        s for s in hub.spans if s.category == "reconfig" and s.parent_id is None
    ]
    assert len(reconfigs) == 1
    root = reconfigs[0]
    assert root.end is not None
    children = children_of(hub, root)
    assert [c.name for c in children] == ["barrier"]
    barrier = children[0]
    assert barrier.end is not None
    # The barrier resolves when the AllGather completes, strictly inside
    # the reconfiguration span.
    [resolved] = event_times(root, EVENT_BARRIER_RESOLVED)
    assert resolved == pytest.approx(barrier.end)
    assert root.start <= barrier.start <= barrier.end <= root.end
    assert len(event_times(root, EVENT_RANK_APPLIED)) == 3

    # The queued second collective recorded the proxy hold — once, under
    # the one name — and the barrier pass that released it.
    second = next(s for s in collective_roots(hub) if s.attrs["seq"] == 1)
    held = event_times(second, EVENT_HELD)
    assert len(held) == 2  # ranks 1 and 2 were holding
    assert event_times(second, EVENT_BARRIER_RESOLVED) == [resolved]
    assert event_times(second, "launch_held") == []
    assert [s.span_id for s in hub.spans if s.category == "reconfig"] == [
        root.span_id, barrier.span_id
    ]

    metrics = hub.metrics
    stall = metrics.histograms()["mccs_barrier_stall_seconds"]
    assert stall.count() == 1
    assert metrics.histograms()["mccs_reconfig_duration_seconds"].count() == 1
    assert metrics.counters()["mccs_launches_held_total"].value(
        comm=f"comm{comm.comm_id}"
    ) == 2
    assert metrics.histograms()["mccs_proxy_hold_seconds"].count() == 3


def test_trace_record_duration_split():
    """total = queue delay + network time, and the record agrees with the
    rendered span of the same collective."""
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    op = client.all_reduce(handle, 8 * MB)  # queues behind the first
    assert comm.trace.records == []  # written at the terminal state
    deployment.run()
    rec = comm.trace.records[op.instance.seq]
    assert rec.seq == op.instance.seq
    root = collective_roots(deployment.telemetry())[op.instance.seq]
    assert (rec.issue_time, rec.end_time) == (root.start, root.end)
    assert [rec.start_time] == event_times(root, EVENT_FIRST_FLOW_START)
    assert rec.duration() == pytest.approx(root.end - root.start)
    assert rec.network_duration() > 0
    assert rec.queue_delay() > 0  # it waited for the first collective
    assert rec.duration() == pytest.approx(
        rec.queue_delay() + rec.network_duration()
    )


def test_comm_trace_is_bounded(monkeypatch):
    monkeypatch.setattr("repro.core.tracing.DEFAULT_TRACE_CAPACITY", 4)
    cluster, deployment, comm, client, handle = make_env()
    ops = [client.all_reduce(handle, 1 * MB) for _ in range(7)]
    deployment.run()
    trace = deployment.trace(comm.comm_id)
    assert all(op.completed for op in ops)
    assert [r.seq for r in trace.records] == [3, 4, 5, 6]


def test_deployment_builds_its_hub_on_its_simulator():
    cluster = testbed_cluster()
    hub = MccsDeployment(cluster).telemetry()
    # Sampler, tracer and flight recorder all watch cluster.sim from birth.
    assert hub.network.sim is hub.causal.sim is cluster.sim
    assert hub.flight.tracer is hub.causal
    assert {hub.network, hub.causal} <= set(cluster.sim._observers)


def test_two_deployments_share_nothing():
    """Two deployments in one process: serving traffic on one moves no
    series, trace or journal record of the other."""
    _, quiet, *_ = make_env()
    _, busy, _, client, handle = make_env()

    def footprint(deployment):
        hub = deployment.telemetry()
        return (
            hub.metrics.snapshot(),
            len(hub.causal.closed_traces()),
            len(hub.events),
            len(deployment.journal),
        )

    before = footprint(quiet)
    served = footprint(busy)
    ops = [client.all_reduce(handle, 1 * MB) for _ in range(3)]
    busy.run()
    assert all(op.completed for op in ops)
    assert footprint(quiet) == before
    assert footprint(busy) != served
    assert len(busy.telemetry().causal.closed_traces()) == 3
    # Collectives change no journaled table.
    assert len(busy.journal) == len(quiet.journal)
    assert busy.telemetry().metrics is not quiet.telemetry().metrics


def test_network_telemetry_sees_collective_flows():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    counters = deployment.telemetry().metrics.counters()
    assert counters["mccs_flows_total"].value(job="app") > 0
    assert counters["mccs_flows_completed_total"].value(
        job="app"
    ) == counters["mccs_flows_total"].value(job="app")
    assert counters["mccs_bytes_moved_total"].value(job="app") > 0


def test_prometheus_export_from_live_deployment():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    text = deployment.telemetry().to_prometheus()
    assert '# TYPE mccs_collectives_issued_total counter' in text
    assert 'mccs_collectives_issued_total{app="app",kind="all_reduce"} 1' in text
    assert "# TYPE mccs_collective_duration_seconds histogram" in text


def test_program_cache_stats_flow_into_summary():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    client.all_reduce(handle, 8 * MB)  # second issue hits the cache
    deployment.run()
    hub = deployment.telemetry()
    stats = hub.network.publish_program_cache()
    assert stats is not None
    assert stats["hits"] >= 1
    assert stats["size"] >= 1
    metrics = hub.metrics
    assert metrics.get("mccs_program_cache_hits").value() == stats["hits"]
    assert metrics.get("mccs_program_cache_misses").value() == stats["misses"]
    lines = hub.summary_lines()
    assert any(line.startswith("program_cache.hits = ") for line in lines)


def test_program_cache_stats_aggregate_across_comms():
    cluster, deployment, comm, client, handle = make_env()
    gpus = [cluster.hosts[h].gpus[1] for h in range(3)]
    deployment.create_communicator("other", gpus)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    stats = deployment.program_cache_stats()
    assert set(stats) == {"size", "hits", "misses", "evictions"}
    per_comm = [c.program_cache.stats() for c in deployment.communicators()]
    assert stats["size"] == sum(s["size"] for s in per_comm)


def test_causal_export_key_sets_are_pinned():
    """The trace carries its own identity; its exports lead with it, key
    for key what they were when a separate context record held it."""
    cluster, deployment, comm, client, handle = make_env()
    op = client.all_reduce(handle, 1 * MB)
    deployment.run()
    hub = deployment.telemetry()
    trace = op.instance.trace
    identity = [
        "trace_id", "tenant", "comm", "seq", "kind", "nbytes",
        "strategy_version",
    ]
    assert list(trace.to_dict()) == identity + [
        "issued_at", "end", "status", "attempts", "events",
    ]
    assert list(hub.causal.critical_path(trace).to_dict()) == identity + [
        "duration_s", "queue_s", "serialization_s", "contention_s",
        "attempts", "critical_flow", "critical_rank", "per_hop",
        "bottleneck_link", "interference", "interferer",
    ]
    assert [trace.to_dict()[key] for key in identity] == [
        trace.trace_id, "app", f"comm{comm.comm_id}", 0, "all_reduce", MB, 0,
    ]
    dump = hub.flight.trigger("manual", cluster.sim.now, trace=trace)
    assert list(dump) == ["reason", "time", "trace_id", "detail", "traces"]
    assert dump["trace_id"] == trace.trace_id
    assert dump["traces"] == [trace.to_dict()]
