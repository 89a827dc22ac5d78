"""Live service upgrade: Figure-4 drain, engine swap, zero downtime."""

import numpy as np
import pytest

from repro.errors import ServiceUnavailableError, UpgradeError
from repro.netsim.units import MB


def _admit(manager, deployment, gpus, app="A"):
    state = manager.admit(app, gpus)
    client = deployment.connect(app)
    return client, client.adopt_communicator(state.comm_id)


def test_upgrade_swaps_engines_and_stays_byte_exact(
    deployment, manager, four_gpus
):
    client, comm = _admit(manager, deployment, four_gpus)
    client.all_reduce(comm, 1 * MB)
    deployment.run()
    service = deployment.service_of(2)
    old_proxies = {id(proxy) for proxy in service.proxies.values()}
    old_frontend = service.frontend_for("A", deployment)

    session = service.upgrade(component="service")
    with pytest.raises(UpgradeError, match="still draining"):
        session.drain_seconds()
    deployment.run()

    assert session.done and not session.failed
    assert session.drained_comms == [comm.comm_id]
    assert session.generation_before == 0 and session.generation_after == 1
    assert session.drain_seconds() >= 0.0
    new_proxies = {id(proxy) for proxy in service.proxies.values()}
    assert old_proxies.isdisjoint(new_proxies)  # real objects swapped
    # The drained communicator gained exactly one strategy epoch.
    comm_obj = deployment.communicator(comm.comm_id)
    assert len(comm_obj.strategy_history) == 2
    assert not comm_obj.aborted

    # Tenant-visible behaviour after the cut: identical, byte-exact.
    sends = [client.alloc(g, 256) for g in four_gpus]
    recvs = [client.alloc(g, 256) for g in four_gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 1.5
    post = client.all_reduce(comm, 256, send=sends, recv=recvs)
    deployment.run()
    assert post.completed
    assert all(np.allclose(r.view(np.float32), 6.0) for r in recvs)
    # The shim reconnected to a fresh frontend of the new generation.
    fresh_frontend = service.frontend_for("A", deployment)
    assert fresh_frontend is not old_frontend
    assert fresh_frontend.generation == 1
    assert deployment.verify_journal() == []


def test_upgrade_under_live_traffic_is_only_a_blip(
    cluster, deployment, manager, four_gpus
):
    client, comm = _admit(manager, deployment, four_gpus)
    ops = []

    def chain(_instance, _now):
        if cluster.sim.now < 0.05:
            ops.append(client.all_reduce(comm, 4 * MB, on_complete=chain))

    ops.append(client.all_reduce(comm, 4 * MB, on_complete=chain))
    sessions = []
    cluster.sim.call_in(
        0.002,
        lambda: sessions.append(
            deployment.service_of(1).upgrade(component="service")
        ),
    )
    deployment.run()

    assert sessions and sessions[0].done and not sessions[0].failed
    assert len(ops) > 1
    assert all(op.completed for op in ops)  # nothing failed, nothing hung
    assert deployment.service_of(1).generation == 1


def test_upgrade_can_switch_algorithm_at_the_cut(
    deployment, manager, four_gpus
):
    client, comm = _admit(manager, deployment, four_gpus)
    assert deployment.communicator(comm.comm_id).strategy.algorithm == "ring"
    session = deployment.service_of(2).upgrade(
        component="service", algorithm="tree"
    )
    deployment.run()
    assert session.done
    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.strategy.algorithm == "tree"
    op = client.all_reduce(comm, 1 * MB)
    deployment.run()
    assert op.completed
    assert deployment.verify_journal() == []


def test_frontend_only_upgrade_skips_the_drain(
    deployment, manager, four_gpus
):
    _client, comm = _admit(manager, deployment, four_gpus)
    service = deployment.service_of(0)
    old_proxies = {id(proxy) for proxy in service.proxies.values()}
    session = service.upgrade(component="frontend")
    deployment.run()
    assert session.done
    assert session.drained_comms == []  # no barrier needed
    assert {id(proxy) for proxy in service.proxies.values()} == old_proxies
    assert len(deployment.communicator(comm.comm_id).strategy_history) == 1
    assert service.frontend_for("A", deployment).generation == 1


def test_upgrade_validates_component_and_liveness(deployment, manager, four_gpus):
    _admit(manager, deployment, four_gpus)
    service = deployment.service_of(0)
    with pytest.raises(UpgradeError, match="unknown component"):
        service.upgrade(component="kernel")
    deployment.crash_service(0)
    with pytest.raises(ServiceUnavailableError):
        service.upgrade(component="service")


def test_upgrade_is_journaled_and_counted(deployment, manager, four_gpus):
    _admit(manager, deployment, four_gpus)
    deployment.service_of(3).upgrade(component="proxy")
    deployment.run()
    records = [
        record
        for record in deployment.journal.records()
        if record.op == "service_upgrade"
    ]
    assert len(records) == 1
    assert records[0].payload["component"] == "proxy"
    assert records[0].payload["host"] == 3
    metrics = deployment.telemetry().metrics
    assert metrics.counter("mccs_upgrades_total").total() == 1
    assert (
        metrics.histogram("mccs_upgrade_drain_seconds").count(
            component="proxy"
        )
        == 1
    )


def test_failed_upgrade_is_logged_and_counted_once(cluster, deployment, manager):
    """Two communicators stay busy for all 21 tries: the session fails,
    and the hub shows one terminal event and one failure count for it."""
    gpus = [[cluster.hosts[h].gpus[i] for h in range(4)] for i in range(2)]
    comms = [manager.admit(app, g).comm_id for app, g in zip("AB", gpus)]
    for comm_id in comms:
        deployment.reconfigure(comm_id, routes={}, delays=[1.0] * 4)
    finished = []
    session = deployment.service_of(1).upgrade(
        "service", on_done=finished.append
    )
    deployment.run()

    assert finished == [session] and session.failed and not session.done
    assert isinstance(session.error, UpgradeError)
    hub = deployment.telemetry()
    (failed,) = hub.events.events("upgrade_failed")
    assert failed.attrs["host"] == 1 and failed.attrs["component"] == "service"
    assert failed.attrs["comm"] == comms[0]
    assert failed.attrs["error"] == str(session.error)
    assert not hub.events.events("upgrade_done")
    failures = hub.metrics.counter("mccs_upgrade_failures_total")
    assert failures.value(host="h1", component="service") == 1
    assert failures.total() == 1
    assert deployment.service_of(1).generation == 0  # nothing was swapped
