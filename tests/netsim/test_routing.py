"""ECMP hashing and route-id path control."""

import pytest

from repro.netsim.errors import NoPathError
from repro.netsim.fabric import nic_node, testbed_fabric as build_testbed
from repro.netsim.routing import (
    EcmpSelector,
    RouteIdSelector,
    RouteMap,
    ecmp_hash,
)


@pytest.fixture
def fab():
    return build_testbed()


def key(i=0):
    return (nic_node(0, 0), nic_node(2, 0), f"conn{i}")


def test_ecmp_hash_is_deterministic():
    assert ecmp_hash(key(), 2, seed=5) == ecmp_hash(key(), 2, seed=5)


def test_ecmp_hash_varies_with_seed():
    values = {ecmp_hash(key(), 16, seed=s) for s in range(40)}
    assert len(values) > 4


def test_ecmp_hash_varies_with_discriminator():
    values = {ecmp_hash(key(i), 16) for i in range(40)}
    assert len(values) > 4


def test_ecmp_hash_is_roughly_balanced():
    hits = [ecmp_hash(key(i), 2) for i in range(400)]
    ones = sum(hits)
    assert 120 <= ones <= 280  # loose 2-sided bound


def test_ecmp_hash_rejects_zero_paths():
    with pytest.raises(ValueError):
        ecmp_hash(key(), 0)


def test_ecmp_selector_returns_valid_path(fab):
    selector = EcmpSelector(seed=3)
    path = selector.select(fab.topology, key())
    assert path in fab.topology.shortest_paths(*key()[:2])


def test_route_map_assignment_and_lookup():
    rm = RouteMap()
    rm.assign(key(), 1)
    assert rm.route_id(key()) == 1
    assert rm.route_id(key(9)) is None
    assert len(rm) == 1


def test_route_map_rejects_negative():
    with pytest.raises(ValueError):
        RouteMap().assign(key(), -1)


def test_route_id_selector_honours_map(fab):
    rm = RouteMap()
    rm.assign(key(), 1)
    selector = RouteIdSelector(rm)
    paths = fab.topology.shortest_paths(*key()[:2])
    assert selector.select(fab.topology, key()) is paths[1]  # shared, not copied


def test_route_id_selector_falls_back_to_ecmp(fab):
    selector = RouteIdSelector(RouteMap(), fallback_seed=11)
    expected = EcmpSelector(seed=11).select(fab.topology, key())
    assert selector.select(fab.topology, key()) == expected


def test_route_id_out_of_range_raises(fab):
    rm = RouteMap()
    rm.assign(key(), 99)
    with pytest.raises(NoPathError):
        RouteIdSelector(rm).select(fab.topology, key())


# ----------------------------------------------------------------------
# Clos-scale selection: path synthesis without BFS
# ----------------------------------------------------------------------
def test_clos_path_tier_shapes():
    from repro.netsim.routing import clos_path
    from repro.netsim.fabric import MultiPodSpec

    spec = MultiPodSpec(
        pods=2,
        spines_per_pod=2,
        leaves_per_pod=2,
        hosts_per_leaf=2,
        nics_per_host=2,
        core_switches=2,
    )
    same_leaf = clos_path(spec, 0, 0, 1, 0, spine=0, core=0)
    intra_pod = clos_path(spec, 0, 0, 2, 0, spine=1, core=0)
    inter_pod = clos_path(spec, 0, 0, spec.hosts_per_pod, 0, spine=0, core=1)
    assert len(same_leaf) == 2
    assert len(intra_pod) == 4 and "pod0.spine1" in intra_pod[1]
    assert len(inter_pod) == 6 and any("core1" in hop for hop in inter_pod)
