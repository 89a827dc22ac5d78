"""Placement policy tests (random / compact) for the §6.5 simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.placement import ClusterAllocator
from repro.cluster.specs import custom_cluster, large_cluster
from repro.netsim.errors import PlacementError


def racks_spanned(cluster, gpus):
    return len({cluster.rack_of(g) for g in gpus})


def hosts_spanned(gpus):
    return len({g.host_id for g in gpus})


@pytest.fixture
def cluster():
    # 4 racks x 2 hosts x 4 GPUs = 32 GPUs
    return custom_cluster(
        num_spines=2, num_leaves=4, hosts_per_leaf=2, gpus_per_host=4
    )


def test_random_placement_size_and_uniqueness(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    gpus = alloc.place_random("j1", 8)
    assert len(gpus) == 8
    assert len({g.global_id for g in gpus}) == 8
    assert alloc.free_count == 24


def test_compact_placement_minimizes_racks(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    gpus = alloc.place_compact("j1", 8)
    assert racks_spanned(cluster, gpus) == 1
    assert hosts_spanned(gpus) == 2


def test_compact_spills_to_second_rack(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    gpus = alloc.place_compact("j1", 12)
    assert racks_spanned(cluster, gpus) == 2


def test_compact_prefers_fullest_rack(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    alloc.place_compact("j1", 4)  # takes half of rack 0
    gpus = alloc.place_compact("j2", 8)
    # j2 should land in a completely free rack, not straddle rack 0.
    assert racks_spanned(cluster, gpus) == 1


def test_release_returns_gpus(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    alloc.place_random("j1", 8)
    alloc.release("j1")
    assert alloc.free_count == 32
    assert len(alloc.place_random("j1", 32)) == 32  # the id is free again


def test_over_allocation_rejected(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    with pytest.raises(PlacementError):
        alloc.place_random("j1", 33)


def test_duplicate_job_rejected(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    alloc.place_random("j1", 2)
    with pytest.raises(PlacementError):
        alloc.place_random("j1", 2)


def test_place_dispatch(cluster):
    alloc = ClusterAllocator(cluster, seed=1)
    assert len(alloc.place("a", 4, "random")) == 4
    assert len(alloc.place("b", 4, "compact")) == 4
    with pytest.raises(ValueError):
        alloc.place("c", 4, "diagonal")


@given(st.lists(st.integers(1, 8), min_size=1, max_size=6), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_no_gpu_allocated_twice(sizes, seed):
    cluster = custom_cluster(
        num_spines=2, num_leaves=4, hosts_per_leaf=2, gpus_per_host=4
    )
    alloc = ClusterAllocator(cluster, seed=seed)
    held = set()
    for i, size in enumerate(sizes):
        if size > alloc.free_count:
            continue
        strategy = "random" if (i + seed) % 2 else "compact"
        gpus = alloc.place(f"j{i}", size, strategy)
        ids = {g.global_id for g in gpus}
        assert not (ids & held)
        held |= ids


def test_compact_on_large_cluster_packs_16_gpu_job():
    cluster = large_cluster()
    alloc = ClusterAllocator(cluster, seed=0)
    gpus = alloc.place_compact("j", 16)
    assert hosts_spanned(gpus) == 2
    assert racks_spanned(cluster, gpus) == 1
