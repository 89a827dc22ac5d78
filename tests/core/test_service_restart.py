"""Service process crash and journal-replay restart.

Covers the per-host :meth:`MccsService.crash`/:meth:`restart` pair, the
:class:`ServiceSupervisor`, the shim's reconnect/reissue machinery, and
the new ``service_crash``/``engine_restart`` fault-plan kinds.
"""

import numpy as np
import pytest

from repro.core.recovery import fault_kind
from repro.core.shim import MccsClient
from repro.errors import (
    HostCrashedError,
    InvalidBufferError,
    ServiceCrashedError,
    ServiceUnavailableError,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.netsim.units import MB


def _admit(manager, deployment, gpus, app="A"):
    state = manager.admit(app, gpus)
    client = deployment.connect(app)
    return client, client.adopt_communicator(state.comm_id)


# ----------------------------------------------------------------------
# crash semantics
# ----------------------------------------------------------------------
def test_crash_makes_shim_calls_fail_typed(deployment, manager, four_gpus):
    client, _comm = _admit(manager, deployment, four_gpus)
    service = deployment.service_of(0)
    deployment.crash_service(0)
    assert not service.alive
    assert service.crashes == 1
    with pytest.raises(ServiceUnavailableError, match="host 0 is down"):
        client.alloc(four_gpus[0], 256)
    # Crashing twice is a no-op, not a double count.
    deployment.crash_service(0)
    assert service.crashes == 1


def test_crash_is_journaled_but_replays_to_nothing(deployment, four_gpus):
    deployment.crash_service(1)
    ops = [record.op for record in deployment.journal.records()]
    assert ops == ["service_crash"]
    deployment.restart_service(1)
    assert deployment.verify_journal() == []


def test_restart_rebuilds_memory_from_journal(deployment, manager, four_gpus):
    client, _comm = _admit(manager, deployment, four_gpus)
    keep = client.alloc(four_gpus[0], 512)
    gone = client.alloc(four_gpus[0], 256)
    client.free(gone)
    deployment.crash_service(0)
    replayed = deployment.restart_service(0)
    assert replayed > 0
    service = deployment.service_of(0)
    assert service.generation == 1 and service.restarts == 1
    allocations = service.memory.allocations()
    assert keep.buffer_id in allocations
    assert gone.buffer_id not in allocations
    assert deployment.verify_journal() == []
    # The surviving buffer is still freeable through the fresh engines.
    client.free(keep)
    assert keep.buffer_id not in service.memory.allocations()


def test_free_is_idempotent_and_double_free_is_typed(
    deployment, manager, four_gpus
):
    client, _comm = _admit(manager, deployment, four_gpus)
    buf = client.alloc(four_gpus[0], 256)
    client.free(buf)
    # Shim-level double free: typed, immediate.
    with pytest.raises(InvalidBufferError, match="double free"):
        client.free(buf)
    # Service-level retried free (e.g. a duplicate FreeRequest after an
    # outage): idempotent no-op that appends nothing to the journal.
    service = deployment.service_of(0)
    before = len(deployment.journal)
    service.free("A", buf.buffer_id)
    assert len(deployment.journal) == before
    # A free of a never-allocated id stays a typed error.
    with pytest.raises(InvalidBufferError):
        service.free("A", 10_000)


# ----------------------------------------------------------------------
# supervised restart completes in-flight work
# ----------------------------------------------------------------------
def test_supervised_restart_completes_inflight_collective(
    cluster, deployment, manager, four_gpus
):
    deployment.enable_recovery(collective_deadline=0.25)
    deployment.enable_service_supervision(restart_delay=0.02)
    client, comm = _admit(manager, deployment, four_gpus)
    sends = [client.alloc(g, 256) for g in four_gpus]
    recvs = [client.alloc(g, 256) for g in four_gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    cluster.sim.call_in(0.0005, lambda: deployment.crash_service(2))
    big = client.all_reduce(comm, 64 * MB)
    small = client.all_reduce(comm, 256, send=sends, recv=recvs)
    deployment.run()

    assert big.completed and small.completed
    assert all(np.allclose(r.view(np.float32), 8.0) for r in recvs)
    service = deployment.service_of(2)
    assert service.alive and service.restarts == 1
    assert not deployment.communicator(comm.comm_id).aborted
    assert deployment.verify_journal() == []
    metrics = deployment.telemetry().metrics
    assert metrics.counter("mccs_supervised_restarts_total").total() == 1
    assert (
        metrics.histogram("mccs_recovery_seconds").count(kind="service_crash")
        >= 1
    )


def test_root_host_crash_reissues_in_fifo_order(
    cluster, deployment, manager, four_gpus
):
    deployment.enable_recovery(collective_deadline=0.25)
    deployment.enable_service_supervision(restart_delay=0.02)
    client, comm = _admit(manager, deployment, four_gpus)
    # Kill the root host's service before anything is issued: both
    # collectives sit in the shim's reissue queue until the restart.
    deployment.crash_service(0)
    first = client.all_reduce(comm, 1 * MB)
    second = client.all_reduce(comm, 1 * MB)
    assert first.pending and second.pending
    deployment.run()

    assert first.completed and second.completed
    assert first.retries >= 1
    assert first.seq < second.seq  # program order preserved
    assert client.retries_total >= 1 and client.giveups_total == 0
    assert deployment.verify_journal() == []


def test_shim_gives_up_typed_when_service_never_returns(
    deployment, manager, four_gpus
):
    # No supervisor: the outage is permanent and the shim must not hang.
    manager.admit("A", four_gpus)
    client = MccsClient(deployment, "A")
    comm = client.adopt_communicator(
        deployment.communicators()[0].comm_id
    )
    deployment.crash_service(0)
    op = client.all_reduce(comm, 1 * MB)
    assert op.pending
    deployment.run()
    assert not op.pending and op.failed
    assert isinstance(op.error, ServiceUnavailableError)
    assert client.giveups_total == 1


def test_free_is_retried_across_the_outage(
    cluster, deployment, manager, four_gpus
):
    deployment.enable_service_supervision(restart_delay=0.01)
    client, _comm = _admit(manager, deployment, four_gpus)
    buf = client.alloc(four_gpus[0], 256)
    deployment.crash_service(0)
    client.free(buf)  # lands in the background retry path
    assert buf.freed
    deployment.run()
    service = deployment.service_of(0)
    assert service.alive
    assert buf.buffer_id not in service.memory.allocations()
    assert client.retries_total >= 1
    assert deployment.verify_journal() == []


# ----------------------------------------------------------------------
# fault-plan integration
# ----------------------------------------------------------------------
def test_service_crash_plan_kills_and_restarts(cluster, deployment):
    plan = FaultPlan().service_crash(0.001, host_id=2, duration=0.004)
    kinds = [event.kind for event in plan.events]
    assert kinds == [FaultKind.SERVICE_CRASH, FaultKind.ENGINE_RESTART]
    assert plan.events[1].time == pytest.approx(0.005)
    injector = FaultInjector(
        cluster, deployment.telemetry(), deployment=deployment
    )
    injector.schedule(plan)
    cluster.sim.run(until=0.003)
    assert not deployment.service_of(2).alive
    cluster.sim.run()
    service = deployment.service_of(2)
    assert service.alive and service.restarts == 1


def test_random_plans_draw_service_crashes(cluster):
    kinds = set()
    for seed in range(30):
        plan = FaultPlan.random(cluster, seed=seed, num_faults=4)
        kinds.update(event.kind for event in plan.events)
    assert FaultKind.SERVICE_CRASH in kinds


def test_fault_kind_classifies_service_errors():
    assert fault_kind(ServiceCrashedError("x")) == "service_crash"
    assert fault_kind(ServiceUnavailableError("x")) == "service_crash"
    assert fault_kind(HostCrashedError("x")) == "host_crash"
