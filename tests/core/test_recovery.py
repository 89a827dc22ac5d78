"""Failure detection and recovery: retries, aborts, shrinks, heartbeats.

Targeted unit coverage for :mod:`repro.core.recovery` and the barrier
timeout of :mod:`repro.core.reconfig`; the chaos suite (``tests/chaos``)
covers the same machinery under randomized fault plans.
"""

import numpy as np
import pytest

from repro.core import recovery as recovery_module
from repro.core.recovery import fault_kind
from repro.errors import (
    CollectiveTimeoutError,
    CommunicatorError,
    HeartbeatTimeoutError,
    HostCrashedError,
    LinkDownError,
    NicFailedError,
    NoPathError,
    ReconfigurationError,
    ReproError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.netsim.units import MB


@pytest.fixture
def injector(cluster, deployment):
    return FaultInjector(cluster, deployment.telemetry(), deployment=deployment)


def _admit(manager, deployment, gpus, app="A"):
    state = manager.admit(app, gpus)
    client = deployment.connect(app)
    return client, client.adopt_communicator(state.comm_id)


def _events(recovery):
    """Kinds of every decision event logged so far (recovery's among them)."""
    return [e.kind for e in recovery.telemetry.events.events()]


# ----------------------------------------------------------------------
# transparent recovery
# ----------------------------------------------------------------------
def test_link_down_recovers_and_bytes_survive(
    cluster, deployment, manager, four_gpus, injector
):
    recovery = deployment.enable_recovery(heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)

    def strike():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        injector.fail_link(links[0])

    cluster.sim.call_in(0.004, strike)
    sends = [client.alloc(g, 256) for g in four_gpus]
    recvs = [client.alloc(g, 256) for g in four_gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    big = client.all_reduce(comm, 64 * MB)
    small = client.all_reduce(comm, 256, send=sends, recv=recvs)
    deployment.run()

    assert big.completed and small.completed
    assert big.instance.attempts >= 2
    assert all(np.allclose(r.view(np.float32), 8.0) for r in recvs)
    assert "recovery_succeeded" in _events(recovery)
    assert not deployment.communicator(comm.comm_id).aborted
    metrics = deployment.telemetry().metrics
    assert metrics.counter("mccs_collectives_retried_total").total() >= 1
    assert metrics.histogram("mccs_recovery_seconds").count(kind="link_down") == 1


def test_recovery_reroutes_around_down_link(
    cluster, deployment, manager, four_gpus, injector
):
    deployment.enable_recovery(heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)
    struck = []

    def strike():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        struck.append(links[0])
        injector.fail_link(links[0])

    cluster.sim.call_in(0.004, strike)
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()
    assert op.completed
    # The retried launch must not traverse the dead link: its flows all
    # completed, which is impossible across a down link.
    assert struck and not cluster.sim.link_is_up(struck[0])


# ----------------------------------------------------------------------
# give-up paths: exhaustion and dead ranks
# ----------------------------------------------------------------------
def test_attempt_exhaustion_aborts_with_typed_error(
    cluster, deployment, manager, four_gpus, injector, monkeypatch
):
    monkeypatch.setattr(recovery_module, "MAX_ATTEMPTS", 2)
    recovery = deployment.enable_recovery(
        collective_deadline=None, heartbeat_until=1.0
    )
    client, comm = _admit(manager, deployment, four_gpus)
    # Both NICs of host 3 die: rank 3 keeps failing at connection setup,
    # but its proxy stays alive so this is not a dead-rank give-up.
    cluster.sim.call_in(0.004, lambda: injector.fail_nic(3, 0))
    cluster.sim.call_in(0.004, lambda: injector.fail_nic(3, 1))
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.aborted
    assert isinstance(comm_obj.abort_error, CommunicatorError)
    assert op.instance.aborted and not op.completed
    assert "recovery_gave_up" in _events(recovery)
    # NIC loss is not a lost rank: the communicator is not shrunk.
    assert comm_obj.world == 4 and comm_obj.membership_epoch == 0
    with pytest.raises(CommunicatorError, match="aborted"):
        client.all_reduce(comm, 1024)


def test_host_crash_shrinks_in_place(
    cluster, deployment, manager, four_gpus, injector
):
    """A lost rank is a shrink: the in-flight op aborts typed, the same
    communicator id lives on with the survivors, committed ``rank_lost``."""
    recovery = deployment.enable_recovery(heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    assert op.instance.aborted and not op.completed
    # Typed: the root cause the data path reported first.
    assert isinstance(op.instance.error, ReproError)
    assert "host 3 crashed" in str(op.instance.error)
    comm_obj = deployment.communicator(comm.comm_id)
    assert not comm_obj.aborted
    assert comm_obj.world == 3 and comm_obj.membership_epoch == 1
    assert comm_obj.gpus == four_gpus[:3]  # survivors keep their order
    (event,) = deployment.telemetry().events.events("membership_committed")
    assert event.message == (
        f"comm{comm.comm_id} rank_lost committed: world 4->3 epoch=1"
    )
    assert deployment.verify_journal() == []
    assert "recovery_shrunk" in _events(recovery)
    assert "recovery_gave_up" not in _events(recovery)
    metrics = deployment.telemetry().metrics
    assert metrics.histogram("mccs_recovery_seconds").count(kind="host_crash") == 1
    assert metrics.counter("mccs_membership_changes_total").value(
        app="A", kind="rank_lost"
    ) == 1
    assert metrics.counter("mccs_comms_aborted_total").total() == 0
    # The tenant re-adopts the same id and runs a byte-exact AllReduce.
    comm = client.adopt_communicator(comm.comm_id)
    sends = [client.alloc(g, 256) for g in comm_obj.gpus]
    recvs = [client.alloc(g, 256) for g in comm_obj.gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    op2 = client.all_reduce(comm, 256, send=sends, recv=recvs)
    deployment.run()
    assert op2.completed
    assert all(np.allclose(r.view(np.float32), 6.0) for r in recvs)


def test_queued_collectives_never_fan_out_on_the_old_membership(
    cluster, deployment, manager, four_gpus, injector, monkeypatch
):
    """The shrink aborts the running op and the queued ones behind it;
    the stream still starts each queued kernel, and none of them may
    reach a proxy of the membership being replaced."""
    from repro.core.proxy import ProxyEngine

    deployment.enable_recovery(heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)
    launches = []
    original = ProxyEngine.request_launch

    def spy(self, rank, instance):
        launches.append((instance.seq, instance.comm.membership_epoch))
        original(self, rank, instance)

    monkeypatch.setattr(ProxyEngine, "request_launch", spy)
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    ops = [client.all_reduce(comm, 64 * MB) for _ in range(3)]
    deployment.run()

    assert all(op.instance.aborted for op in ops)
    # Only the running op ever fanned out: once, to the four old ranks.
    assert launches == [(ops[0].instance.seq, 0)] * 4
    assert deployment.communicator(comm.comm_id).world == 3


def test_shrink_leaves_no_old_rank_on_any_proxy(
    cluster, deployment, manager, four_gpus
):
    """After the cutover no engine, dead or alive, lists the communicator
    under an old rank, so a later heartbeat miss opens no episode."""
    recovery = deployment.enable_recovery(heartbeat_until=0.5)
    client, comm = _admit(manager, deployment, four_gpus)
    # Unsupervised service crash mid-collective: the data path reports it
    # and the shrink lands before the next heartbeat tick (0.01 s) finds
    # the dead engines.
    cluster.sim.call_in(0.004, lambda: deployment.crash_service(2))
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    assert op.instance.aborted
    comm_obj = deployment.communicator(comm.comm_id)
    assert not comm_obj.aborted and comm_obj.world == 3
    missed = deployment.telemetry().metrics.counter("mccs_heartbeats_missed_total")
    assert missed.total() == len(cluster.hosts[2].gpus)
    for service in deployment.services.values():
        for proxy in service.proxies.values():
            for _, rank in proxy.ranks():
                assert comm_obj.gpus[rank].global_id == proxy.gpu_global_id
    events = recovery.telemetry.events
    (detected,) = events.events("failure_detected")
    assert detected.time == pytest.approx(0.004) and "heartbeat" not in detected.message
    assert len(events.events("recovery_shrunk")) == 1
    assert recovery._cycles == {}


def test_rank_lost_fails_an_elastic_change_in_flight(
    cluster, deployment, manager, four_gpus, injector
):
    """The grow quiesces behind two collectives when host 3 crashes:
    recovery's aborts end the quiesce, and the cutover refuses the rank
    set that still holds the dead rank."""
    deployment.enable_recovery(heartbeat_until=1.0)
    elastic = deployment.elastic
    client, comm = _admit(manager, deployment, four_gpus)
    ops = [client.all_reduce(comm, 64 * MB) for _ in range(2)]
    record = elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    deployment.run()

    assert record.state == "failed" and "lost before cutover" in str(record.error)
    assert all(op.instance.aborted for op in ops)
    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.world == 3 and not comm_obj.aborted
    assert elastic._inflight == {}
    assert deployment.verify_journal() == []


def test_crash_blast_radius_spares_co_tenant(
    cluster, deployment, manager, injector
):
    deployment.enable_recovery(heartbeat_until=1.0)
    victim_gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    vclient, vcomm = _admit(manager, deployment, victim_gpus, app="victim")
    healthy_gpus = [cluster.hosts[0].gpus[1], cluster.hosts[1].gpus[1]]
    hclient, hcomm = _admit(manager, deployment, healthy_gpus, app="healthy")
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    vop = vclient.all_reduce(vcomm, 64 * MB)
    hop = hclient.all_reduce(hcomm, 16 * MB)
    deployment.run()
    assert vop.instance.aborted
    assert hop.completed
    assert not deployment.communicator(hcomm.comm_id).aborted


# ----------------------------------------------------------------------
# detection: deadlines and heartbeats
# ----------------------------------------------------------------------
def test_collective_deadline_detects_stall(
    cluster, deployment, manager, four_gpus, injector, monkeypatch
):
    # Deadline must clear a healthy 64MB AllReduce (~21ms) but trip
    # during the brownout.
    monkeypatch.setattr(recovery_module, "MAX_ATTEMPTS", 8)
    recovery = deployment.enable_recovery(
        collective_deadline=0.03, heartbeat_until=1.0
    )
    client, comm = _admit(manager, deployment, four_gpus)

    def brownout():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        # Degraded links stay *up*, so only the deadline can notice.
        injector.degrade_link(links[0], 0.01)
        cluster.sim.call_in(0.06, lambda: injector.restore_capacity(links[0]))

    cluster.sim.call_in(0.004, brownout)
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()
    assert op.completed
    detected = recovery.telemetry.events.events("failure_detected")
    assert detected and "deadline" in detected[0].message
    assert (
        deployment.telemetry().metrics.counter("mccs_collective_deadlines_total").total()
        >= 1
    )
    assert "recovery_succeeded" in _events(recovery)


def test_heartbeat_monitor_detects_idle_crash(
    cluster, deployment, manager, four_gpus, injector
):
    recovery = deployment.enable_recovery(heartbeat_until=0.5)
    client, comm = _admit(manager, deployment, four_gpus)
    # No collective in flight: only the heartbeat can notice this crash.
    cluster.sim.call_in(0.1, lambda: injector.crash_host(2))
    deployment.run()
    comm_obj = deployment.communicator(comm.comm_id)
    assert not comm_obj.aborted and comm_obj.world == 3
    assert four_gpus[2] not in comm_obj.gpus
    assert (
        deployment.telemetry().metrics.counter("mccs_heartbeats_missed_total").total()
        >= 1
    )
    detected = recovery.telemetry.events.events("failure_detected")
    assert detected and "heartbeat" in detected[0].message
    op = client.all_reduce(client.adopt_communicator(comm.comm_id), 1024)
    deployment.run()
    assert op.completed


def test_heartbeat_monitor_is_bounded():
    from repro.cluster.specs import testbed_cluster
    from repro.core.deployment import MccsDeployment

    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    deployment.enable_recovery(heartbeat_until=0.1)
    end = deployment.run()
    # The monitor re-arms only inside its bound: the sim terminates.
    assert end <= 0.1 + 0.01 + 1e-9


def test_heartbeat_monitor_reports_a_hosts_second_service_crash(
    cluster, deployment, manager, four_gpus
):
    """A restarted service has fresh proxy engines; when it crashes again
    (unsupervised, communicator idle) only the heartbeat can notice."""
    recovery = deployment.enable_recovery(heartbeat_until=1.0)
    _admit(manager, deployment, four_gpus)
    cluster.sim.call_in(0.05, lambda: deployment.crash_service(1))
    cluster.sim.call_in(0.10, lambda: deployment.restart_service(1))
    # The first crash shrank host 1 out of comm A: a second tenant gives
    # the restarted engines a rank to lose.
    second = [cluster.hosts[h].gpus[1] for h in (1, 2, 3)]
    cluster.sim.call_in(0.15, lambda: manager.admit("B", second))
    cluster.sim.call_in(0.20, lambda: deployment.crash_service(1))
    deployment.run()
    per_host = len(cluster.hosts[1].gpus)
    missed = deployment.telemetry().metrics.counter("mccs_heartbeats_missed_total")
    assert missed.total() == 2 * per_host
    misses = [
        dump["time"]
        for dump in deployment.telemetry().flight.dumps()
        if dump["reason"] == "heartbeat_miss"
    ]
    assert sum(1 for t in misses if t > 0.15) == per_host
    assert len(recovery.telemetry.events.events("failure_detected")) == 2


# ----------------------------------------------------------------------
# satellite 1: reconfiguration barrier timeout
# ----------------------------------------------------------------------
def test_barrier_timeout_names_missing_ranks(
    cluster, deployment, manager, four_gpus, injector
):
    state = manager.admit("A", four_gpus)
    injector.crash_host(2)
    with pytest.raises(ReconfigurationError, match=r"rank\(s\) \[2\]"):
        deployment.reconfigure(state.comm_id, ring=[3, 2, 1, 0], barrier_timeout=0.01)
        deployment.run()
    assert (
        deployment.telemetry().metrics.counter("mccs_reconfig_timeouts_total").total()
        == 1
    )


def test_barrier_timeout_on_failed_handler(
    cluster, deployment, manager, four_gpus, injector
):
    state = manager.admit("A", four_gpus)
    injector.crash_host(1)
    failures = []
    deployment.reconfigure(
        state.comm_id,
        ring=[3, 2, 1, 0],
        barrier_timeout=0.01,
        on_failed=lambda session: failures.append(session.error),
    )
    deployment.run()
    assert len(failures) == 1
    assert isinstance(failures[0], ReconfigurationError)
    assert "[1]" in str(failures[0])


def test_barrier_timeout_requires_positive_value(deployment, manager, four_gpus):
    state = manager.admit("A", four_gpus)
    with pytest.raises(ReconfigurationError, match="positive"):
        deployment.reconfigure(state.comm_id, ring=[3, 2, 1, 0], barrier_timeout=-1.0)


def test_reconfigure_without_timeout_still_waits(deployment, manager, four_gpus):
    state = manager.admit("A", four_gpus)
    done = []
    deployment.reconfigure(
        state.comm_id, ring=[3, 2, 1, 0], on_done=lambda s: done.append(s)
    )
    deployment.run()
    assert len(done) == 1


# ----------------------------------------------------------------------
# fault_kind classification
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "error, kind",
    [
        (HostCrashedError("x"), "host_crash"),
        (HeartbeatTimeoutError("x"), "host_crash"),
        (NicFailedError("x"), "nic_fail"),
        (LinkDownError("x"), "link_down"),
        (NoPathError("x"), "link_down"),
        (CollectiveTimeoutError("x"), "timeout"),
        (ReconfigurationError("x"), "reconfig"),
        (ValueError("x"), "other"),
    ],
)
def test_fault_kind_classification(error, kind):
    assert fault_kind(error) == kind


def test_host_crash_below_min_world_aborts(
    cluster, deployment, manager, injector
):
    """Fewer than ``MIN_WORLD`` survivors: no shrink, the communicator
    aborts typed and alertably (``mccs_comms_aborted_total``)."""
    recovery = deployment.enable_recovery(heartbeat_until=1.0)
    gpus = [cluster.hosts[0].gpus[0], cluster.hosts[3].gpus[0]]
    client, comm = _admit(manager, deployment, gpus)
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.aborted and op.instance.aborted
    assert isinstance(comm_obj.abort_error, CommunicatorError)
    assert comm_obj.world == 2 and comm_obj.membership_epoch == 0
    assert "recovery_gave_up" in _events(recovery)
    assert "recovery_shrunk" not in _events(recovery)
    metrics = deployment.telemetry().metrics
    assert metrics.counter("mccs_comms_aborted_total").value(kind="host_crash") == 1
    with pytest.raises(CommunicatorError, match="aborted"):
        client.all_reduce(comm, 1024)


def test_a_change_planned_before_a_lost_rank_is_refused(
    cluster, deployment, manager, four_gpus, injector
):
    """A shrink drains while host 3 crashes: recovery cuts the dead rank
    out first, and the shrink, planned against the old rank set, fails at
    its cutover instead of committing on top of the new one."""
    deployment.enable_recovery(heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)
    record = deployment.elastic.shrink(comm.comm_id, [0])
    injector.schedule(FaultPlan().host_crash(0.0, 3))
    deployment.run()

    assert record.state == "failed" and "changed membership" in str(record.error)
    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.gpus == four_gpus[:3] and comm_obj.membership_epoch == 1
    assert deployment.verify_journal() == []
