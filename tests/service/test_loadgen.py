"""Fleet load generator: seeded arrivals and tenant storms."""

from repro.cluster.specs import custom_cluster
from repro.core.deployment import MccsDeployment
from repro.service import FleetLoadGenerator, ServiceGateway, fleet_specs

TENANTS = 4
HORIZON = 4.0


def issued(storm):
    cluster = custom_cluster(
        num_spines=1, num_leaves=1, hosts_per_leaf=TENANTS, gpus_per_host=2
    )
    deployment = MccsDeployment(cluster)
    specs = fleet_specs(TENANTS, seed=0)
    gen = FleetLoadGenerator(ServiceGateway(deployment), specs, seed=0)
    gen.provision({s.tenant_id: (2 * i, 2 * i + 1) for i, s in enumerate(specs)})
    gen.start(horizon=HORIZON)
    if storm:
        for spec in specs:
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
