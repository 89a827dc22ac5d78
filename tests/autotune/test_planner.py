"""Offline planner: cost model, candidate space, ranking."""

import pytest

from repro.autotune import (
    StrategyPlanner,
    bottleneck_seconds,
    estimate_seconds,
    pair_traffic,
    topology_fingerprint,
)
from repro.cluster.specs import testbed_cluster
from repro.collectives.tree import double_binary_trees
from repro.collectives.types import Collective
from repro.core.algorithms import get_algorithm
from repro.experiments.setups import single_app_gpus
from repro.netsim.units import KB, MB
from repro.telemetry.metrics import MetricsRegistry
from tests.collectives.oracles import (
    double_tree_allreduce_traffic,
    edge_traffic,
    halving_doubling_traffic,
)

RING, TREE, HD = map(get_algorithm, ("ring", "tree", "halving_doubling"))


@pytest.fixture
def gpus(cluster):
    return single_app_gpus(cluster, "8gpu")


# -- fingerprint ----------------------------------------------------------------
def test_fingerprint_is_stable_and_descriptive(cluster, gpus):
    fp = topology_fingerprint(cluster, gpus)
    assert fp == topology_fingerprint(testbed_cluster(), gpus)
    assert cluster.fabric.spec.name in fp
    assert "hosts4" in fp and "racks2" in fp


def test_fingerprint_distinguishes_placement_shape(cluster):
    fp8 = topology_fingerprint(cluster, single_app_gpus(cluster, "8gpu"))
    fp4 = topology_fingerprint(cluster, single_app_gpus(cluster, "4gpu"))
    assert fp8 != fp4


# -- traffic + bottleneck -------------------------------------------------------
def test_pair_traffic_falls_back_to_ring():
    # tree only specializes AllReduce; halving-doubling additionally
    # needs a power-of-two world — both mirror the registry fallback
    ring = pair_traffic(RING, Collective.ALL_GATHER, range(4), 100)
    assert pair_traffic(TREE, Collective.ALL_GATHER, range(4), 100) == ring
    hd6 = pair_traffic(HD, Collective.ALL_REDUCE, range(6), 100)
    assert hd6 == pair_traffic(RING, Collective.ALL_REDUCE, range(6), 100)
    # the fallback is the algorithm's own (its plan() names the ring's
    # program); the cost model re-decides nothing, and the ring it gets
    # is the closed form it used to call
    for kind in Collective:
        per_edge = edge_traffic(kind, 100, 4, 0)
        assert pair_traffic(RING, kind, (2, 0, 3, 1), 100) == {
            ((2, 0, 3, 1)[p], (2, 0, 3, 1)[(p + 1) % 4]): nbytes
            for p, nbytes in enumerate(per_edge)
            if nbytes
        }


def test_pair_traffic_specializations_differ_from_ring():
    ring = pair_traffic(RING, Collective.ALL_REDUCE, range(8), 100)
    tree = pair_traffic(TREE, Collective.ALL_REDUCE, range(8), 100)
    hd = pair_traffic(HD, Collective.ALL_REDUCE, range(8), 100)
    assert tree != ring and hd != ring and hd != tree
    # each is its algorithm's flows summed per pair == the old closed form
    assert tree == double_tree_allreduce_traffic(double_binary_trees(range(8)), 100)
    assert hd == halving_doubling_traffic(range(8), 100)


def test_bottleneck_spine_uplink_bites_cross_rack(cluster, gpus):
    # the bisection-heavy halving-doubling butterfly loads the rack
    # uplinks harder than the locality-friendly ring at equal bytes
    nbytes = 64 * MB
    ring_t = bottleneck_seconds(
        cluster, gpus,
        pair_traffic(RING, Collective.ALL_REDUCE, range(8), nbytes), 2,
    )
    hd_t = bottleneck_seconds(
        cluster, gpus,
        pair_traffic(HD, Collective.ALL_REDUCE, range(8), nbytes), 2,
    )
    assert hd_t > ring_t


def test_bottleneck_intra_host_uses_local_channel(cluster):
    host = cluster.hosts[0]
    both_local = bottleneck_seconds(
        cluster, host.gpus, {(0, 1): 1e9, (1, 0): 1e9}, 1
    )
    # local_gBps (200 Gbps-equivalent at 25 GB/s) beats a 50 Gbps NIC
    one_remote = bottleneck_seconds(
        cluster,
        [host.gpus[0], cluster.hosts[1].gpus[0]],
        {(0, 1): 1e9, (1, 0): 1e9},
        1,
    )
    assert both_local < one_remote


def test_more_channels_spread_nic_load(cluster):
    gpus = [cluster.hosts[0].gpus[0], cluster.hosts[1].gpus[0]]
    traffic = {(0, 1): 1e9}
    one = bottleneck_seconds(cluster, gpus, traffic, 1)
    two = bottleneck_seconds(cluster, gpus, traffic, 2)
    assert two < one  # second channel lands on the second NIC


# -- ring canonicalization ------------------------------------------------------
def test_canonical_ring_collapses_rotations_and_reflections():
    from repro.autotune import canonical_ring

    base = (0, 3, 1, 2)
    for rotation in range(4):
        rotated = base[rotation:] + base[:rotation]
        assert canonical_ring(rotated) == canonical_ring(base)
        assert canonical_ring(tuple(reversed(rotated))) == (
            canonical_ring(base)
        )
    # genuinely different cycles stay apart
    assert canonical_ring((0, 1, 3, 2)) != canonical_ring((0, 1, 2, 3))
    assert canonical_ring(()) == ()


def test_equivalent_ring_orders_are_deduped_before_costing(
    cluster, gpus, monkeypatch
):
    """Satellite fix: a locality order that is merely a rotation or
    reflection of rank order must not double the candidate space."""
    import repro.autotune.planner as planner_mod

    def count(locality):
        monkeypatch.setattr(
            planner_mod, "locality_ring_order", lambda c, g: locality
        )
        planner = StrategyPlanner(cluster)
        orders = planner.ring_orders(gpus)
        return orders, len(planner.candidates(Collective.ALL_REDUCE, gpus))

    world = len(gpus)
    distinct = (0, 2, 4, 6, 1, 3, 5, 7)
    orders_two, n_two = count(distinct)
    assert set(orders_two) == {"rank_order", "locality"}

    # a rotation of identity, and its reflection, collapse to rank_order
    for alias in (
        tuple(range(3, world)) + tuple(range(3)),
        tuple(reversed(range(world))),
    ):
        orders_one, n_one = count(alias)
        assert set(orders_one) == {"rank_order"}
        assert n_one == n_two // 2  # candidate count drops, not just labels


# -- planner --------------------------------------------------------------------
def test_candidate_space_shape(cluster, gpus):
    planner = StrategyPlanner(cluster)
    allreduce = planner.candidates(Collective.ALL_REDUCE, gpus)
    assert {c.algorithm for c in allreduce} == {
        "ring", "tree", "halving_doubling",
    }
    # AllGather has no specialized families
    allgather = planner.candidates(Collective.ALL_GATHER, gpus)
    assert {c.algorithm for c in allgather} == {"ring"}
    # non-power-of-two world drops halving-doubling
    six = planner.candidates(Collective.ALL_REDUCE, gpus[:6])
    assert "halving_doubling" not in {c.algorithm for c in six}


def test_plan_scores_every_candidate_once(cluster, gpus):
    planner = StrategyPlanner(cluster)
    ranked = planner.plan(Collective.ALL_REDUCE, 1 * MB, gpus)
    signatures = [s.candidate.signature() for s in ranked]
    assert len(signatures) == len(set(signatures))
    raw = planner.candidates(Collective.ALL_REDUCE, gpus)
    assert sorted(signatures) == sorted(c.signature() for c in raw)


def test_plan_is_sorted_and_size_sensitive(cluster, gpus):
    planner = StrategyPlanner(cluster)
    small = planner.plan(Collective.ALL_REDUCE, 64 * KB, gpus)
    large = planner.plan(Collective.ALL_REDUCE, 64 * MB, gpus)
    for ranked in (small, large):
        costs = [s.predicted_seconds for s in ranked]
        assert costs == sorted(costs)
    # the paper's trade: fewer latency hops win small, rings win large
    assert small[0].candidate.algorithm in ("halving_doubling", "tree")
    assert large[0].candidate.algorithm == "ring"
    assert planner.best(Collective.ALL_REDUCE, 64 * MB, gpus) == large[0]


def test_plan_publishes_metrics(cluster, gpus):
    metrics = MetricsRegistry()
    planner = StrategyPlanner(cluster, metrics=metrics)
    ranked = planner.plan(Collective.ALL_REDUCE, 1 * MB, gpus)
    assert planner.plans_evaluated == len(ranked)
    counter = metrics.counters()["mccs_autotune_plans_evaluated_total"]
    assert counter.value(kind="all_reduce") == planner.plans_evaluated
