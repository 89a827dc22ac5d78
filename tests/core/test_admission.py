"""Overload protection: QoS quotas, priority shedding, typed rejects."""

import pytest

from repro.core.admission import AdmissionPolicy
from repro.errors import AdmissionRejectedError, PolicyError
from repro.netsim.units import MB


def _admit(manager, deployment, gpus, app):
    state = manager.admit(app, gpus)
    client = deployment.connect(app)
    return client, client.adopt_communicator(state.comm_id)


def test_policy_validates_class_names():
    policy = AdmissionPolicy()
    assert policy.quota("low") == 4
    with pytest.raises(PolicyError, match="unknown QoS class"):
        policy.quota("bogus")


def test_tenant_quota_sheds_typed_and_counts(
    deployment, manager, four_gpus
):
    admission = deployment.configure_admission(
        AdmissionPolicy(classes=(("high", 64), ("normal", 16), ("low", 1)))
    )
    admission.set_class("A", "low")
    with pytest.raises(PolicyError):
        admission.set_class("A", "platinum")
    client, comm = _admit(manager, deployment, four_gpus, "A")

    first = client.all_reduce(comm, 1 * MB)  # fills the low-class quota
    with pytest.raises(AdmissionRejectedError, match="tenant quota"):
        client.all_reduce(comm, 1 * MB)
    assert admission.shed_total == 1 and admission.admitted_total == 1
    deployment.run()
    assert first.completed
    # In-flight work drained: the tenant is admitted again.
    second = client.all_reduce(comm, 1 * MB)
    deployment.run()
    assert second.completed
    metrics = deployment.telemetry().metrics
    admissions = metrics.counter("mccs_admission_total")
    assert admissions.total(decision="shed") == 1
    assert admissions.total(app="A", qos="low", decision="shed") == 1
    assert admissions.total() == 3
    [shed] = deployment.telemetry().events.events("admission_shed")
    assert shed.attrs["qos"] == "low" and "tenant quota" in shed.message


def test_global_cap_spares_only_the_top_priority_class(
    cluster, deployment, manager
):
    admission = deployment.configure_admission(
        AdmissionPolicy(
            classes=(("high", 64), ("normal", 16), ("low", 4)),
            total_inflight=1,
        )
    )
    admission.set_class("A", "high")
    assert admission.class_of("B") == "normal"  # default class
    gpus_a = [cluster.hosts[h].gpus[0] for h in range(4)]
    gpus_b = [cluster.hosts[0].gpus[1], cluster.hosts[1].gpus[1]]
    client_a, comm_a = _admit(manager, deployment, gpus_a, "A")
    client_b, comm_b = _admit(manager, deployment, gpus_b, "B")

    client_a.all_reduce(comm_a, 1 * MB)  # cap reached, deployment-wide
    with pytest.raises(AdmissionRejectedError, match="overload"):
        client_b.all_reduce(comm_b, 1 * MB)
    # The high-priority tenant keeps being admitted under overload.
    client_a.all_reduce(comm_a, 1 * MB)
    assert admission.shed_total == 1 and admission.admitted_total == 2
    deployment.run()
    # Overload cleared: the normal-class tenant is admitted again.
    op = client_b.all_reduce(comm_b, 1 * MB)
    deployment.run()
    assert op.completed


def test_shed_surfaces_in_resilience_summary(deployment, manager, four_gpus):
    admission = deployment.configure_admission(
        AdmissionPolicy(classes=(("high", 64), ("normal", 16), ("low", 1)))
    )
    admission.set_class("A", "low")
    client, comm = _admit(manager, deployment, four_gpus, "A")
    client.all_reduce(comm, 1 * MB)
    with pytest.raises(AdmissionRejectedError):
        client.all_reduce(comm, 1 * MB)
    deployment.run()
    lines = deployment.telemetry().summary_lines()
    assert "resilience.shed = 1" in lines
    assert any(line.startswith("resilience.journal_records = ") for line in lines)
    stats = deployment.resilience_stats()
    assert stats["shed"] == 1 and stats["admitted"] >= 1
