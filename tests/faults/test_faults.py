"""Unit coverage for :mod:`repro.faults` and the engine's fault surface.

Plan construction/validation, injector semantics (link/NIC/host), and
the engine-level guarantees fault storms lean on:
``cancel_flow`` idempotence and typed flow failure.
"""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.errors import (
    HostCrashedError,
    LinkDownError,
    NicFailedError,
    UnknownLinkError,
)
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.netsim.engine import FlowSimulator
from repro.netsim.topology import Topology
from repro.telemetry import TelemetryHub


def _injected(hub):
    """(time, kind) of every fault the hub's decision log saw applied."""
    return [(e.time, e.attrs["fault"]) for e in hub.events.events("fault_injected")]


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def test_fault_event_validation():
    with pytest.raises(ValueError, match="non-negative"):
        FaultEvent(-1.0, FaultKind.LINK_DOWN, link_id="a->b")
    with pytest.raises(ValueError, match="link_id"):
        FaultEvent(0.0, FaultKind.LINK_DOWN)
    with pytest.raises(ValueError, match="host_id and nic_index"):
        FaultEvent(0.0, FaultKind.NIC_FAIL, host_id=1)
    with pytest.raises(ValueError, match="host_id"):
        FaultEvent(0.0, FaultKind.HOST_CRASH)
    with pytest.raises(ValueError, match="factor"):
        FaultEvent(0.0, FaultKind.LINK_DEGRADE, link_id="a->b", factor=1.5)


def test_plan_builders_sort_and_pair_recoveries():
    plan = (
        FaultPlan()
        .host_crash(0.5, 2)
        .link_down(0.1, "a->b", duration=0.3)
        .nic_fail(0.2, 1, 0, duration=0.1)
        .link_degrade(0.15, "c->d", 0.25)
    )
    kinds = [e.kind for e in plan.events]
    assert kinds == [
        FaultKind.LINK_DOWN,
        FaultKind.LINK_DEGRADE,
        FaultKind.NIC_FAIL,
        FaultKind.NIC_RECOVER,
        FaultKind.LINK_UP,
        FaultKind.HOST_CRASH,
    ]
    times = [e.time for e in plan.events]
    assert times == sorted(times)
    assert len(plan) == 6
    assert all(isinstance(line, str) for line in plan.describe())


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
def test_fail_link_kills_crossing_flows_with_typed_error():
    cluster = testbed_cluster()
    sim = cluster.sim
    failures = []
    flow = sim.add_flow(
        1e9,
        ["h0.nic0->leaf0", "leaf0->spine0", "spine0->leaf1", "leaf1->h2.nic0"],
        on_fail=lambda f, t, err: failures.append(err),
    )
    injector = FaultInjector(cluster, TelemetryHub(cluster.sim))
    injector.fail_link("leaf0->spine0")
    assert flow.failed and not flow.completed
    assert isinstance(failures[0], LinkDownError)
    with pytest.raises(LinkDownError):
        sim.add_flow(1.0, ["leaf0->spine0"])
    injector.restore_link("leaf0->spine0")
    assert sim.add_flow(1.0, ["leaf0->spine0"]) is not None


def test_degrade_and_restore_capacity_roundtrip():
    cluster = testbed_cluster()
    injector = FaultInjector(cluster, TelemetryHub(cluster.sim))
    original = cluster.sim.link_capacity("leaf0->spine0")
    injector.degrade_link("leaf0->spine0", 0.25)
    assert cluster.sim.link_capacity("leaf0->spine0") == pytest.approx(original / 4)
    # Degrading twice still restores to the *original*, not the degraded cap.
    injector.degrade_link("leaf0->spine0", 0.5)
    injector.restore_capacity("leaf0->spine0")
    assert cluster.sim.link_capacity("leaf0->spine0") == pytest.approx(original)
    injector.restore_capacity("leaf0->spine0")  # idempotent


def test_nic_fail_and_recover():
    cluster = testbed_cluster()
    injector = FaultInjector(cluster, TelemetryHub(cluster.sim))
    injector.fail_nic(1, 0)
    host = cluster.hosts[1]
    assert not host.nics[0].alive
    assert host.alive_nics() == [host.nics[1]]
    for link_id in cluster.links_of_nic(1, 0):
        assert not cluster.sim.link_is_up(link_id)
    # Channel->NIC rotation skips the dead NIC.
    gpu = host.gpus[0]
    assert cluster.nic_of_channel(gpu, 0) == host.nics[1].node_id
    injector.fail_nic(1, 0)  # idempotent
    injector.recover_nic(1, 0)
    assert host.nics[0].alive
    for link_id in cluster.links_of_nic(1, 0):
        assert cluster.sim.link_is_up(link_id)


def test_all_nics_dead_raises_typed_error():
    cluster = testbed_cluster()
    injector = FaultInjector(cluster, TelemetryHub(cluster.sim))
    injector.fail_nic(1, 0)
    injector.fail_nic(1, 1)
    with pytest.raises(NicFailedError):
        cluster.nic_of_channel(cluster.hosts[1].gpus[0], 0)


def test_crash_host_is_idempotent_and_total():
    cluster = testbed_cluster()
    injector = FaultInjector(cluster, TelemetryHub(cluster.sim))
    injector.crash_host(2)
    host = cluster.hosts[2]
    assert not host.alive
    assert all(not nic.alive for nic in host.nics)
    for link_id in cluster.links_of_host(2):
        assert not cluster.sim.link_is_up(link_id)
    with pytest.raises(HostCrashedError):
        cluster.nic_of_channel(cluster.hosts[2].gpus[0], 0)
    injector.crash_host(2)  # idempotent
    # A crashed host's NICs do not come back.
    injector.recover_nic(2, 0)
    assert not host.nics[0].alive


def test_injector_schedule_applies_in_order_and_counts():
    cluster = testbed_cluster()
    hub = TelemetryHub(cluster.sim)
    injector = FaultInjector(cluster, hub)
    plan = FaultPlan().link_down(0.1, "leaf0->spine0", duration=0.2).host_crash(0.4, 3)
    injector.schedule(plan)
    cluster.sim.run()
    assert _injected(hub) == [
        (0.1, "link_down"),
        (pytest.approx(0.3), "link_up"),
        (0.4, "host_crash"),
    ]
    counter = hub.metrics.counter("mccs_faults_injected_total")
    assert counter.value(kind="link_down") == 1
    assert counter.value(kind="host_crash") == 1
    assert cluster.sim.link_is_up("leaf0->spine0")


def test_unknown_link_raises():
    cluster = testbed_cluster()
    injector = FaultInjector(cluster, TelemetryHub(cluster.sim))
    with pytest.raises(UnknownLinkError):
        injector.fail_link("no->where")


# ----------------------------------------------------------------------
# satellite 2: cancel_flow under fault storms
# ----------------------------------------------------------------------
def _storm_topo():
    topo = Topology()
    for node in ("a", "b"):
        topo.add_node(node)
    topo.add_link("a", "b", 8.0)
    return topo


def test_cancel_flow_idempotent_during_storm():
    sim = FlowSimulator(_storm_topo())
    flows = [sim.add_flow(1e6, ["a->b"]) for _ in range(8)]
    killed = sim.fail_link("a->b")
    assert sorted(f.flow_id for f in killed) == sorted(f.flow_id for f in flows)
    # Every post-mortem operation on the dead flows is a safe no-op.
    for flow in flows:
        sim.cancel_flow(flow)
        sim.cancel_flow(flow)
        assert flow.failed and not flow.completed
        assert isinstance(flow.error, LinkDownError)
    counters = sim.perf_counters()
    assert counters["flows_failed"] == 8
    assert counters["flows_cancelled"] == 0  # failed, not cancelled
    sim.restore_link("a->b")
    assert sim.run() == 0.0  # empty network: nothing stalls


def test_cancel_then_fail_link_storm_interleaved():
    sim = FlowSimulator(_storm_topo())
    done, failed = [], []
    for i in range(6):
        sim.add_flow(
            8.0,
            ["a->b"],
            on_complete=lambda f, t: done.append(f.flow_id),
            on_fail=lambda f, t, e: failed.append(f.flow_id),
        )
    victims = []
    sim.schedule(0.1, lambda: victims.extend(sim.fail_link("a->b")))
    sim.schedule(0.2, lambda: sim.restore_link("a->b"))
    sim.schedule(0.2, lambda: [sim.cancel_flow(f) for f in victims])  # no-op
    sim.schedule(0.3, lambda: sim.add_flow(8.0, ["a->b"], on_complete=lambda f, t: done.append(f.flow_id)))
    sim.run()
    assert len(failed) == 6 and len(done) == 1
    assert sim.perf_counters()["flows_failed"] == 6
    # Survivor saw the full link alone: 8 bytes at 8 B/s from t=0.3.
    assert sim.now == pytest.approx(1.3)


def test_fail_link_idempotent():
    sim = FlowSimulator(_storm_topo())
    sim.add_flow(1e6, ["a->b"])
    first = sim.fail_link("a->b")
    assert len(first) == 1
    assert sim.fail_link("a->b") == []  # already down: nothing new to kill
    assert not sim.link_is_up("a->b")
    sim.restore_link("a->b")
    sim.restore_link("a->b")  # idempotent
    assert sim.link_is_up("a->b")


# ----------------------------------------------------------------------
# bandwidth drift
# ----------------------------------------------------------------------
def test_bandwidth_drift_builder_validates_and_pairs_restore():
    with pytest.raises(ValueError, match="positive"):
        FaultEvent(0.0, FaultKind.BANDWIDTH_DRIFT, link_id="a->b", factor=0.0)
    plan = FaultPlan().bandwidth_drift(0.1, "a->b", 0.5, duration=0.2)
    assert [e.kind for e in plan.events] == [
        FaultKind.BANDWIDTH_DRIFT,
        FaultKind.LINK_RESTORE,
    ]


def test_drift_plan_walk_is_seeded_bounded_and_restoring():
    from repro.faults import BandwidthDriftPlan

    drift = BandwidthDriftPlan(
        links=["a->b", "c->d"], start=0.1, interval=0.1, steps=3, seed=9
    )
    plan = drift.to_fault_plan()
    again = drift.to_fault_plan()
    assert [
        (e.time, e.kind, e.link_id, e.factor) for e in plan.events
    ] == [(e.time, e.kind, e.link_id, e.factor) for e in again.events]
    drifts = [e for e in plan.events if e.kind is FaultKind.BANDWIDTH_DRIFT]
    restores = [e for e in plan.events if e.kind is FaultKind.LINK_RESTORE]
    assert len(drifts) == 6  # 3 steps x 2 links
    lo, hi = drift.factor_range
    assert all(lo <= e.factor <= hi for e in drifts)
    # Every link is restored one interval after its last step.
    assert sorted(e.link_id for e in restores) == ["a->b", "c->d"]
    assert all(e.time == pytest.approx(0.4) for e in restores)


def test_drift_injection_restores_original_capacity():
    cl = testbed_cluster()
    from repro.faults import BandwidthDriftPlan

    link = "leaf0->spine0"
    original = cl.sim.link_capacity(link)
    injector = FaultInjector(cl, TelemetryHub(cl.sim))
    injector.schedule(
        BandwidthDriftPlan(
            links=[link],
            start=0.01,
            interval=0.01,
            steps=4,
            # hi < 1.0 guarantees the very first step moves the capacity.
            factor_range=(0.25, 0.9),
            seed=3,
        ).to_fault_plan()
    )
    cl.sim.run(until=0.03)
    assert cl.sim.link_capacity(link) != original  # mid-walk
    cl.sim.run(until=0.1)
    assert cl.sim.link_capacity(link) == original  # exactly restored


# ----------------------------------------------------------------------
# tenant storms
# ----------------------------------------------------------------------
def test_tenant_storm_event_validation():
    with pytest.raises(ValueError, match="app_id"):
        FaultEvent(0.0, FaultKind.TENANT_STORM, factor=50.0)
    with pytest.raises(ValueError, match="exceed 1"):
        FaultEvent(0.0, FaultKind.TENANT_STORM, app_id="t0", factor=1.0)
    event = FaultEvent(0.0, FaultKind.TENANT_STORM, app_id="t0", factor=50.0)
    assert "t0" in event.describe() and "x50" in event.describe()


def test_tenant_storm_builder_always_pairs_calm():
    plan = FaultPlan().tenant_storm(0.5, "tenant-3", factor=10.0, duration=0.25)
    kinds = [e.kind for e in plan.events]
    assert kinds == [FaultKind.TENANT_STORM, FaultKind.TENANT_CALM]
    storm, calm = plan.events
    assert storm.app_id == calm.app_id == "tenant-3"
    assert calm.time == pytest.approx(storm.time + 0.25)


def test_injector_routes_tenant_storm_to_callbacks():
    cluster = testbed_cluster()
    hub = TelemetryHub(cluster.sim)
    injector = FaultInjector(cluster, hub)
    calls = []
    injector.on_tenant_storm = lambda app, factor: calls.append(("storm", app, factor))
    injector.on_tenant_calm = lambda app: calls.append(("calm", app))
    plan = FaultPlan().tenant_storm(0.1, "tenant-0", factor=50.0, duration=0.2)
    injector.schedule(plan)
    cluster.sim.run()
    assert calls == [("storm", "tenant-0", 50.0), ("calm", "tenant-0")]
    assert [fault for _, fault in _injected(hub)] == ["tenant_storm", "tenant_calm"]


def test_injector_tenant_storm_without_hooks_is_noop():
    cluster = testbed_cluster()
    hub = TelemetryHub(cluster.sim)
    injector = FaultInjector(cluster, hub)
    injector.apply(
        FaultEvent(0.0, FaultKind.TENANT_STORM, app_id="tenant-0", factor=2.0)
    )
    injector.apply(FaultEvent(0.0, FaultKind.TENANT_CALM, app_id="tenant-0"))
    assert len(_injected(hub)) == 2
