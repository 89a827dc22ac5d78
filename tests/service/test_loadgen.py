"""Fleet load generator: seeded arrivals and tenant storms."""

import gc

from repro.cluster.specs import custom_cluster
from repro.core.deployment import MccsDeployment
from repro.service import FleetLoadGenerator, GatewayPolicy, ServiceGateway, fleet_specs
from repro.service.gateway import GatewayRecord

TENANTS = 4
HORIZON = 4.0


def fleet(policy=None):
    cluster = custom_cluster(
        num_spines=1, num_leaves=1, hosts_per_leaf=TENANTS, gpus_per_host=2
    )
    deployment = MccsDeployment(cluster)
    specs = fleet_specs(TENANTS, seed=0)
    gen = FleetLoadGenerator(ServiceGateway(deployment, policy), specs, seed=0)
    gen.provision({s.tenant_id: (2 * i, 2 * i + 1) for i, s in enumerate(specs)})
    gen.start(horizon=HORIZON)
    return deployment, gen


def issued(storm):
    deployment, gen = fleet()
    if storm:
        for spec in gen.specs:
            gen.storm(spec.tenant_id, 2.0)
            gen.calm(spec.tenant_id)
    deployment.run(until=HORIZON + 1.0)
    return gen.stats()["issued"]


def test_storm_leaves_no_extra_arrival_chain():
    """A storm re-arms a tenant; the arrival it replaced must not fire too.
    (At the parent each storm left one more permanent arrival chain, so a
    storm that was calmed at once nearly doubled the load.)"""
    assert issued(storm=False) > 0
    assert issued(storm=True) < 1.25 * issued(storm=False)


def test_deadline_timers_pin_no_settled_record(monkeypatch):
    """A deadline timer names its request, not its record: with 30 s
    deadlines pending, the live records are the ring's and the unsettled
    ones.  (A timer that held its record kept every accepted record in
    the event heap until its deadline.)"""
    monkeypatch.setattr("repro.service.gateway.RECORDS_KEPT", 16)
    deployment, gen = fleet(GatewayPolicy(default_deadline=30.0))
    deployment.run(until=HORIZON)
    gateway = gen.gateway
    assert sum(gateway.settled.values()) > 4 * 16
    gc.collect()
    live = sum(type(obj) is GatewayRecord for obj in gc.get_objects())
    assert live <= 16 + gateway._queued + gateway._inflight
