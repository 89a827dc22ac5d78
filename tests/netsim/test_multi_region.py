"""Multi-region WAN fabrics: geometry, routing, drift, cluster layering."""

import pytest

from repro.cluster.specs import multi_region_cluster
from repro.netsim.engine import FlowSimulator
from repro.netsim.fabric import (
    RegionSpec,
    multi_region,
    nic_node,
    wan_link_id,
    wan_links,
)
from repro.netsim.units import gbps


def test_default_spec_geometry():
    spec = RegionSpec()
    assert spec.regions == 2
    assert spec.num_hosts == 8
    assert spec.hosts_per_region == 4
    assert spec.region_of_host(0) == 0 and spec.region_of_host(4) == 1
    assert [h for h in range(spec.num_hosts) if spec.region_of_host(h) == 1] == [4, 5, 6, 7]
    assert spec.leaf_of_host(2) == 1 and spec.leaf_of_host(4) == 2
    with pytest.raises(ValueError):
        spec.region_of_host(8)


def test_wan_links_full_mesh():
    fab = multi_region(RegionSpec(regions=3))
    links = wan_links(fab)
    assert links == sorted(
        wan_link_id(a, b) for a in range(3) for b in range(3) if a != b
    )
    for link_id in links:
        assert fab.topology.capacity_of(link_id) == pytest.approx(gbps(10))


def test_switches_carry_region_attribute():
    fab = multi_region(RegionSpec())
    for node_id, node in fab.topology.nodes.items():
        if node_id.startswith("r0.") or "h0." in node_id:
            assert node.attrs["region"] == 0
        if node_id.startswith("r1.") or "h7." in node_id:
            assert node.attrs["region"] == 1


def test_intra_region_path_avoids_wan():
    fab = multi_region(RegionSpec())
    paths = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(2, 0))
    assert paths
    for path in paths:
        assert not any(link.startswith("wan:") for link in path)


def test_cross_region_path_crosses_exactly_one_wan_link():
    fab = multi_region(RegionSpec())
    paths = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(4, 0))
    assert paths
    for path in paths:
        crossed = [link for link in path if link.startswith("wan:")]
        assert crossed == [wan_link_id(0, 1)]


def test_wan_flow_is_bottlenecked_by_wan_capacity():
    fab = multi_region(RegionSpec())
    sim = FlowSimulator(fab.topology)
    path = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(4, 0))[0]
    flow = sim.add_flow(1e9, path)
    sim.run(until=0.001)
    assert flow.rate == pytest.approx(gbps(10))


def test_wan_drift_rescales_live_flow():
    fab = multi_region(RegionSpec())
    sim = FlowSimulator(fab.topology)
    path = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(4, 0))[0]
    flow = sim.add_flow(1e12, path)
    sim.run(until=0.001)
    epoch = fab.topology.routing_epoch
    sim.set_link_bandwidth(wan_link_id(0, 1), gbps(5))
    sim.run(until=0.002)
    assert flow.rate == pytest.approx(gbps(5))
    # Resizes widen/narrow the usable path set: pins must re-resolve.
    assert fab.topology.routing_epoch == epoch + 1


def test_multi_region_cluster_layers_hosts_and_fingerprint():
    cluster = multi_region_cluster()
    assert cluster.num_hosts == 8 and cluster.num_gpus == 8
    assert cluster.rack_of(cluster.gpu(0)) == 0
    # region_of_host is reachable through the fabric spec (the autotuner
    # keys WAN-crossing placements on it).
    assert cluster.fabric.spec.region_of_host(cluster.gpu(7).host_id) == 1

    from repro.autotune.cost import topology_fingerprint

    local = topology_fingerprint(cluster, [cluster.gpu(0), cluster.gpu(1)])
    wan = topology_fingerprint(cluster, [cluster.gpu(0), cluster.gpu(4)])
    assert local.endswith("/regions1")
    assert wan.endswith("/regions2")
    assert local != wan
