"""Elastic membership: live grow/shrink of communicators.

Unit coverage for :mod:`repro.core.elastic` — the drain/quiesce/cutover
state machine, the joiner handshake (admission + staging buffers), the
deterministic survivor renumbering, the journal record, and the chaos
entry points the fault injector drives.  The experiment-level bars live
in ``tests/experiments/test_elastic.py`` and the WAN interleaving
property in ``tests/chaos``.
"""

import numpy as np
import pytest

from repro.core import elastic as elastic_module
from repro.core.admission import AdmissionPolicy
from repro.core.elastic import MIN_WORLD
from repro.errors import AdmissionRejectedError, MembershipChangeError
from repro.faults import FaultInjector, FaultPlan
from repro.netsim.units import MB
from repro.resilience import Backoff


def _admit(manager, deployment, gpus, app="A"):
    state = manager.admit(app, gpus)
    client = deployment.connect(app)
    return client, client.adopt_communicator(state.comm_id)


def _byte_exact(deployment, client, comm):
    svc = deployment.communicator(comm.comm_id)
    gpus = list(svc.gpus)
    sends = [client.alloc(g, 256) for g in gpus]
    recvs = [client.alloc(g, 256) for g in gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    op = client.all_reduce(
        comm, 256, send=[b.ref() for b in sends], recv=[b.ref() for b in recvs]
    )
    deployment.run()
    assert op.completed
    assert all(np.allclose(r.view(np.float32), 2.0 * len(gpus)) for r in recvs)
    for buf in sends + recvs:
        client.free(buf)
    deployment.run()


# ----------------------------------------------------------------------
# grow
# ----------------------------------------------------------------------
def test_grow_commits_and_bumps_epoch(cluster, deployment, manager, four_gpus):
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    joiner = cluster.hosts[0].gpus[1]
    done = []
    record = elastic.grow(comm.comm_id, [joiner], on_done=done.append)
    deployment.run()

    assert done == [record]
    assert record.state == "done" and record.kind == "rank_join"
    assert record.world_before == 4 and record.world_after == 5
    assert record.joined == [joiner.global_id]
    svc = deployment.communicator(comm.comm_id)
    assert svc.world == 5
    assert svc.membership_epoch == record.epoch == 1
    # Joiners are appended: survivors keep their relative rank order.
    assert [g.global_id for g in svc.gpus[:4]] == [
        g.global_id for g in four_gpus
    ]
    assert svc.gpus[4] is joiner
    _byte_exact(deployment, client, client.adopt_communicator(comm.comm_id))
    metrics = deployment.telemetry().metrics
    assert (
        metrics.counter("mccs_membership_changes_total").value(
            app="A", kind="rank_join"
        )
        == 1
    )


def test_grow_mid_traffic_drains_then_cuts_over(
    cluster, deployment, manager, four_gpus
):
    """A grow issued while collectives are in flight quiesces first."""
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    ops = [client.all_reduce(comm, 16 * MB) for _ in range(3)]
    record = elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    assert not record.finished  # barrier + quiesce run on the clock
    deployment.run()
    assert record.state == "done"
    assert all(op.completed for op in ops)  # drained, never aborted
    assert deployment.communicator(comm.comm_id).world == 5


def test_grow_validation_errors(cluster, deployment, manager, four_gpus):
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    spare = cluster.hosts[0].gpus[1]
    with pytest.raises(MembershipChangeError, match="at least one"):
        elastic.grow(comm.comm_id, [])
    with pytest.raises(MembershipChangeError, match="already a member"):
        elastic.grow(comm.comm_id, [four_gpus[0]])
    with pytest.raises(MembershipChangeError, match="listed twice"):
        elastic.grow(comm.comm_id, [spare, spare])
    deployment.crash_service(3)
    cluster.hosts[3].alive = False
    with pytest.raises(MembershipChangeError, match="crashed host"):
        elastic.grow(comm.comm_id, [cluster.hosts[3].gpus[1]])


def test_grow_sheds_through_admission(cluster, deployment, manager, four_gpus):
    deployment.configure_admission(
        AdmissionPolicy(classes=(("zero", 0),), default_class="zero")
    )
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    before = cluster.hosts[0].gpus[1].memory_used
    with pytest.raises(AdmissionRejectedError):
        elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    # Rejected before the handshake allocated anything.
    assert cluster.hosts[0].gpus[1].memory_used == before
    assert deployment.communicator(comm.comm_id).world == 4


def test_failed_grow_releases_staging_buffers(
    cluster, deployment, manager, four_gpus, monkeypatch
):
    """A drain that exhausts its attempts frees the joiner's staging."""
    monkeypatch.setattr(
        elastic_module, "DRAIN_RETRY", Backoff(base=0.01, cap=0.01, max_retries=0)
    )
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    # The barrier stays busy for both the one try and the give-up check.
    deployment.reconfigure(comm.comm_id, routes={}, delays=[1.0] * 4)
    joiner = cluster.hosts[0].gpus[1]
    before = joiner.memory_used
    failed = []
    record = elastic.grow(comm.comm_id, [joiner], on_failed=failed.append)
    deployment.run()
    assert failed == [record] and record.state == "failed"
    assert isinstance(record.error, MembershipChangeError)
    assert joiner.memory_used == before  # staging handed back
    assert deployment.communicator(comm.comm_id).world == 4
    metrics = deployment.telemetry().metrics
    assert (
        metrics.counter("mccs_membership_failures_total").value(
            app="A", kind="rank_join"
        )
        == 1
    )


# ----------------------------------------------------------------------
# shrink
# ----------------------------------------------------------------------
def test_shrink_renumbers_survivors_deterministically(
    cluster, deployment, manager, four_gpus
):
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    record = elastic.shrink(comm.comm_id, [1])
    deployment.run()
    assert record.state == "done" and record.kind == "rank_leave"
    assert record.left == [four_gpus[1].global_id]
    svc = deployment.communicator(comm.comm_id)
    assert svc.world == 3 and svc.membership_epoch == 1
    # Ranks compact downward, preserving relative order.
    assert [g.global_id for g in svc.gpus] == [
        four_gpus[0].global_id,
        four_gpus[2].global_id,
        four_gpus[3].global_id,
    ]
    _byte_exact(deployment, client, client.adopt_communicator(comm.comm_id))


def test_shrink_validation_errors(cluster, deployment, manager, four_gpus):
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    with pytest.raises(MembershipChangeError, match="at least one"):
        elastic.shrink(comm.comm_id, [])
    with pytest.raises(MembershipChangeError, match="out of range"):
        elastic.shrink(comm.comm_id, [4])
    with pytest.raises(MembershipChangeError, match=f"< {MIN_WORLD}"):
        elastic.shrink(comm.comm_id, [0, 1, 2])


def test_one_operation_in_flight_per_communicator(
    cluster, deployment, manager, four_gpus
):
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    elastic.shrink(comm.comm_id, [3])
    assert elastic.inflight(comm.comm_id) is not None
    with pytest.raises(MembershipChangeError, match="in flight"):
        elastic.shrink(comm.comm_id, [2])
    deployment.run()
    assert elastic.inflight(comm.comm_id) is None


# ----------------------------------------------------------------------
# journal + crash/restart
# ----------------------------------------------------------------------
def test_membership_survives_crash_restart(
    cluster, deployment, manager, four_gpus
):
    deployment.enable_recovery()
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    deployment.run()
    elastic.shrink(comm.comm_id, [0])
    deployment.run()
    changes = [
        rec for rec in deployment.journal.records()
        if rec.op == "membership_change"
    ]
    assert [rec.payload["kind"] for rec in changes] == [
        "rank_join",
        "rank_leave",
    ]
    assert deployment.verify_journal() == []

    deployment.crash_service(1)
    deployment.service_of(1).restart()
    deployment.run()
    assert deployment.verify_journal() == []
    svc = deployment.communicator(comm.comm_id)
    assert svc.world == 4 and svc.membership_epoch == 2
    _byte_exact(deployment, client, client.adopt_communicator(comm.comm_id))


def test_membership_notifies_recovery(cluster, deployment, manager, four_gpus):
    recovery = deployment.enable_recovery()
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    elastic.shrink(comm.comm_id, [3])
    deployment.run()
    assert any(
        "rank_leave" in e.message
        for e in recovery.telemetry.events.events("membership_changed")
    )


# ----------------------------------------------------------------------
# chaos entry points
# ----------------------------------------------------------------------
def test_chaos_helpers_pick_deterministically(
    cluster, deployment, manager, four_gpus
):
    elastic = deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    assert elastic.chaos_grow()  # lowest spare alive GPU joins
    deployment.run()
    svc = deployment.communicator(comm.comm_id)
    spare = min(
        g.global_id for g in cluster.gpus
        if g.global_id not in {x.global_id for x in four_gpus}
    )
    assert svc.gpus[-1].global_id == spare
    assert elastic.chaos_shrink()  # highest rank leaves
    deployment.run()
    assert deployment.communicator(comm.comm_id).world == 4


def test_chaos_helpers_never_raise_without_targets(cluster, deployment):
    elastic = deployment.enable_elasticity()
    assert not elastic.chaos_shrink()  # no communicators at all
    assert not elastic.chaos_grow()
    assert not elastic.chaos_shrink(comm_id=999)


def test_fault_plan_membership_kinds_drive_elastic(
    cluster, deployment, manager, four_gpus
):
    """rank_join / rank_leave fault events reach the coordinator."""
    deployment.enable_elasticity()
    client, comm = _admit(manager, deployment, four_gpus)
    injector = FaultInjector(
        cluster, deployment.telemetry(), deployment=deployment
    )
    plan = FaultPlan().rank_join(0.01).rank_leave(0.05)
    injector.schedule(plan)
    client.all_reduce(comm, 4 * MB)
    deployment.run()
    svc = deployment.communicator(comm.comm_id)
    assert svc.membership_epoch == 2  # one join + one leave committed
    assert svc.world == 4
    assert deployment.verify_journal() == []
