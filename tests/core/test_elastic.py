"""Elastic membership: live grow/shrink of communicators.

Unit coverage for :mod:`repro.core.elastic` — the drain/quiesce/cutover
state machine, the joiner's admission check, the deterministic survivor
renumbering, the committed-change event and a destroy mid-change.  The
experiment-level bars live in ``tests/experiments/test_elastic_experiment.py``
and grow/shrink interleaved with faults in the ``tests/chaos`` state
machine.
"""

import numpy as np
import pytest

from repro.core import elastic as elastic_module
from repro.core.admission import AdmissionPolicy
from repro.core.elastic import MIN_WORLD
from repro.errors import (
    AdmissionRejectedError,
    MembershipChangeError,
)
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
    elastic = deployment.elastic
    client, comm = _admit(manager, deployment, four_gpus)
    joiner = cluster.hosts[0].gpus[1]
    record = elastic.grow(comm.comm_id, [joiner])
    deployment.run()

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
    elastic = deployment.elastic
    client, comm = _admit(manager, deployment, four_gpus)
    ops = [client.all_reduce(comm, 16 * MB) for _ in range(3)]
    record = elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    assert record.state == "drain"  # barrier + quiesce run on the clock
    deployment.run()
    assert record.state == "done"
    assert all(op.completed for op in ops)  # drained, never aborted
    assert deployment.communicator(comm.comm_id).world == 5


def test_grow_validation_errors(cluster, deployment, manager, four_gpus):
    elastic = deployment.elastic
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
    elastic = deployment.elastic
    client, comm = _admit(manager, deployment, four_gpus)
    with pytest.raises(AdmissionRejectedError):
        elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    # Rejected before anything started: a shrink (which admission does
    # not gate) is not refused as a second change in flight.
    assert elastic.shrink(comm.comm_id, [3]).state == "drain"
    assert deployment.communicator(comm.comm_id).world == 4


def test_exhausted_drain_fails_the_grow(
    cluster, deployment, manager, four_gpus, monkeypatch
):
    """A drain that exhausts its attempts fails the grow, typed and
    counted, and leaves the membership alone."""
    monkeypatch.setattr(
        elastic_module, "DRAIN_RETRY", Backoff(base=0.01, cap=0.01, max_retries=0)
    )
    elastic = deployment.elastic
    client, comm = _admit(manager, deployment, four_gpus)
    # The barrier stays busy for both the one try and the give-up check.
    deployment.reconfigure(comm.comm_id, routes={}, delays=[1.0] * 4)
    record = elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    deployment.run()
    assert record.state == "failed"
    assert isinstance(record.error, MembershipChangeError)
    assert elastic._inflight == {}
    assert deployment.communicator(comm.comm_id).world == 4
    metrics = deployment.telemetry().metrics
    assert (
        metrics.counter("mccs_membership_failures_total").value(
            app="A", kind="rank_join"
        )
        == 1
    )


def test_destroy_mid_drain_fails_the_change(cluster, deployment):
    """A tenant destroy while a grow and a live upgrade drain the
    communicator: the barrier session is abandoned, the grow fails typed,
    the upgrade completes without it, and nothing is left behind."""
    elastic = deployment.elastic
    client = deployment.connect("A")
    gpus = list(cluster.gpus)
    comm = client.create_communicator([gpus[0], gpus[2], gpus[4]])
    record = elastic.grow(comm.comm_id, [gpus[6]])
    client.destroy_communicator(comm)
    deployment.run()
    assert record.state == "failed" and "died during drain" in str(record.error)
    assert elastic._inflight == {}

    comm = client.create_communicator([gpus[0], gpus[2], gpus[4]])
    session = deployment.service_of(gpus[0].host_id).upgrade()
    client.destroy_communicator(comm)
    deployment.run()
    assert session.done and session.drained_comms == []
    assert deployment.reconfig._active == {}
    assert deployment.verify_journal() == []


# ----------------------------------------------------------------------
# shrink
# ----------------------------------------------------------------------
def test_shrink_renumbers_survivors_deterministically(
    cluster, deployment, manager, four_gpus
):
    elastic = deployment.elastic
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
    elastic = deployment.elastic
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
    elastic = deployment.elastic
    client, comm = _admit(manager, deployment, four_gpus)
    change = elastic.shrink(comm.comm_id, [3])
    assert change.state == "drain"
    with pytest.raises(MembershipChangeError, match="in flight"):
        elastic.shrink(comm.comm_id, [2])
    deployment.run()
    assert change.state == "done"
    assert elastic.shrink(comm.comm_id, [2]).state == "drain"


# ----------------------------------------------------------------------
# journal + crash/restart
# ----------------------------------------------------------------------
def test_membership_survives_crash_restart(
    cluster, deployment, manager, four_gpus
):
    deployment.enable_recovery()
    elastic = deployment.elastic
    client, comm = _admit(manager, deployment, four_gpus)
    elastic.grow(comm.comm_id, [cluster.hosts[0].gpus[1]])
    deployment.run()
    elastic.shrink(comm.comm_id, [0])
    deployment.run()
    hub = deployment.telemetry()
    assert [e.message for e in hub.events.events("membership_committed")] == [
        f"comm{comm.comm_id} rank_join committed: world 4->5 epoch=1",
        f"comm{comm.comm_id} rank_leave committed: world 5->4 epoch=2",
    ]
    changes = hub.metrics.counter("mccs_membership_changes_total")
    assert changes.value(app="A", kind="rank_join") == 1
    assert changes.value(app="A", kind="rank_leave") == 1
    assert deployment.verify_journal() == []

    deployment.crash_service(1)
    deployment.service_of(1).restart()
    deployment.run()
    assert deployment.verify_journal() == []
    svc = deployment.communicator(comm.comm_id)
    assert svc.world == 4 and svc.membership_epoch == 2
    _byte_exact(deployment, client, client.adopt_communicator(comm.comm_id))
