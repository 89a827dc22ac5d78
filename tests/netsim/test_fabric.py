"""Fabric builders: the Figure 5a testbed, the §6.5 cluster, Figure 7 ring."""

import pytest

from repro.netsim.fabric import (
    FabricSpec,
    large_cluster_fabric,
    local_link_id,
    nic_node,
    spine_leaf,
    switch_ring,
    testbed_fabric as build_testbed,
)
from repro.netsim.units import gbps


def test_testbed_geometry():
    fab = build_testbed()
    spec = fab.spec
    assert spec.num_hosts == 4
    assert spec.nics_per_host == 2
    assert fab.num_fabric_paths == 2
    assert fab.rack_of(0) == 0 and fab.rack_of(1) == 0
    assert fab.rack_of(2) == 1 and fab.rack_of(3) == 1


def test_testbed_capacities():
    topo = build_testbed().topology
    # vNIC links are 50G, fabric links are 50G (2:1 oversubscription).
    assert topo.capacity_of("h0.nic0->leaf0") == pytest.approx(gbps(50))
    assert topo.capacity_of("leaf0->spine0") == pytest.approx(gbps(50))


def test_cross_rack_paths_one_per_spine():
    fab = build_testbed()
    paths = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(2, 0))
    assert len(paths) == fab.spec.num_spines == 2
    for path in paths:
        assert len(path) == 4  # nic->leaf->spine->leaf->nic


def test_intra_rack_path_is_unique_and_short():
    fab = build_testbed()
    paths = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(1, 0))
    assert len(paths) == 1
    assert len(paths[0]) == 2


def test_local_link_per_host():
    fab = build_testbed()
    for host in range(4):
        assert local_link_id(host) in fab.topology.links


def test_large_cluster_dimensions():
    fab = large_cluster_fabric()
    spec = fab.spec
    assert spec.num_hosts == 96
    assert spec.num_hosts * 8 == 768  # GPUs
    assert spec.num_spines == 16
    assert spec.num_leaves == 24
    assert fab.num_fabric_paths == 16
    # 2:1 oversubscription: 4 hosts x 8 NICs = 32 down vs 16 up per leaf.
    assert spec.hosts_per_leaf * spec.nics_per_host == 32


def test_large_cluster_cross_rack_path_count():
    fab = large_cluster_fabric()
    paths = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(95, 7))
    assert len(paths) == 16


def test_host_out_of_range_rejected():
    spec = FabricSpec()
    with pytest.raises(ValueError):
        spec.leaf_of_host(99)


def test_hosts_of_leaf():
    spec = FabricSpec(num_leaves=3, hosts_per_leaf=2)
    assert [h for h in range(spec.num_hosts) if spec.leaf_of_host(h) == 1] == [2, 3]


def test_switch_ring_structure():
    fab = switch_ring()
    topo = fab.topology
    # adjacent switches connected both ways
    for s in range(4):
        assert f"sw{s}->sw{(s + 1) % 4}" in topo.links
        assert f"sw{(s + 1) % 4}->sw{s}" in topo.links
    # adjacent hosts: unique shortest path via one inter-switch hop
    paths = topo.equal_cost_paths(nic_node(0, 0), nic_node(1, 0))
    assert len(paths) == 1
    assert "sw0->sw1" in paths[0]
    # opposite hosts: two equal-cost directions around the ring
    paths = topo.equal_cost_paths(nic_node(0, 0), nic_node(2, 0))
    assert len(paths) == 2


def test_spine_links_helper():
    fab = build_testbed()
    links = [
        link.link_id
        for link in fab.topology.links.values()
        if link.src.startswith("spine") or link.dst.startswith("spine")
    ]
    assert len(links) == 2 * 2 * 2  # leaves x spines x both directions
    assert all("spine" in l for l in links)


def test_custom_spec_scales():
    fab = spine_leaf(FabricSpec(num_spines=4, num_leaves=6, hosts_per_leaf=3))
    assert fab.spec.num_hosts == 18
    assert fab.num_fabric_paths == 4
    paths = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(17, 0))
    assert len(paths) == 4


def test_intra_host_path_helper():
    # Two GPUs of one host talk over the host's local link.
    fab = build_testbed()
    path = [local_link_id(2)]
    assert path == ["h2.local"]
    fab.topology.validate_path(path)


def test_fabric_paths_helper():
    # Every cross-rack NIC pair has the fabric's multi-path count of routes.
    fab = build_testbed()
    paths = fab.topology.equal_cost_paths(nic_node(0, 0), nic_node(3, 1))
    assert len(paths) == fab.num_fabric_paths
