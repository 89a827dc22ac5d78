"""WAN terms in the cost model: bandwidth loads and the RTT step penalty."""

import pytest

from repro.autotune import (
    StrategyPlanner,
    bottleneck_seconds,
    estimate_seconds,
    pair_traffic,
    wan_rtt_seconds,
)
from repro.cluster.specs import multi_region_cluster, testbed_cluster
from repro.collectives.types import Collective
from repro.core.algorithms import get_algorithm
from repro.experiments.setups import single_app_gpus
from repro.netsim.fabric import RegionSpec
from repro.netsim.units import KB, MB, gbps
from repro.synth import hierarchical_allreduce_program, temporarily_registered

RING = get_algorithm("ring")


@pytest.fixture
def two_regions():
    cluster = multi_region_cluster(RegionSpec())
    gpus = [h.gpus[0] for h in cluster.hosts]
    return cluster, gpus


def test_wan_bandwidth_enters_the_bottleneck(two_regions):
    cluster, gpus = two_regions
    traffic = pair_traffic(RING, Collective.ALL_REDUCE, range(8), 64 * MB)
    with_wan = bottleneck_seconds(cluster, gpus, traffic, 1)
    # same ring entirely inside region 0 never touches the WAN
    dense = multi_region_cluster(RegionSpec(), gpus_per_host=2)
    local_gpus = [g for h in dense.hosts[:4] for g in h.gpus]
    without_wan = bottleneck_seconds(dense, local_gpus, traffic, 1)
    assert with_wan > without_wan


def test_rack_uplink_counts_the_leafs_own_region_spines():
    """``RegionSpec.num_spines`` counts every region's spines, but a leaf
    uplinks only to its own region's ``spines_per_region``: four GPUs of
    one leaf sending to four of the next saturate two uplinks, not four."""
    spec = RegionSpec()
    cluster = multi_region_cluster(spec, gpus_per_host=2)
    gpus = [g for h in cluster.hosts[:4] for g in h.gpus]  # region 0, two leaves
    assert {cluster.rack_of(g) for g in gpus} == {0, 1}
    assert spec.num_spines == 2 * spec.spines_per_region
    traffic = {(rank, rank + 4): 1e9 for rank in range(4)}
    uplinks = spec.spines_per_region * gbps(spec.fabric_gbps)
    assert bottleneck_seconds(cluster, gpus, traffic, 1) == 4e9 / uplinks


def test_rtt_term_zero_without_regions_or_crossings(two_regions):
    cluster, gpus = two_regions
    traffic = pair_traffic(RING, Collective.ALL_REDUCE, range(8), 1 * MB)
    # single-region fabric: no region_of_host, term vanishes
    flat = testbed_cluster()
    flat_gpus = single_app_gpus(flat, "8gpu")
    assert wan_rtt_seconds(
        flat, flat_gpus, Collective.ALL_REDUCE,
        algorithm=RING, steps=14, traffic=traffic,
    ) == 0.0
    # multi-region fabric but placement confined to one region
    local = [h.gpus[0] for h in cluster.hosts[:4]]
    local_traffic = pair_traffic(
        RING, Collective.ALL_REDUCE, range(4), 1 * MB
    )
    assert wan_rtt_seconds(
        cluster, local, Collective.ALL_REDUCE,
        algorithm=RING, steps=6, traffic=local_traffic,
    ) == 0.0


def test_builtin_pays_rtt_on_every_step_synth_only_on_crossing_steps(
    two_regions,
):
    cluster, gpus = two_regions
    wan_rtt = cluster.fabric.spec.wan_rtt
    assert wan_rtt > 0
    traffic = pair_traffic(RING, Collective.ALL_REDUCE, range(8), 1 * MB)
    ring_penalty = wan_rtt_seconds(
        cluster, gpus, Collective.ALL_REDUCE,
        algorithm=RING, steps=14, traffic=traffic,
    )
    assert ring_penalty == pytest.approx(wan_rtt * 14)

    program = hierarchical_allreduce_program(
        [[0, 1, 2, 3], [4, 5, 6, 7]], name="synth:test-wan-hier/w8"
    )
    with temporarily_registered(program) as (algo,):
        synth_penalty = wan_rtt_seconds(
            cluster, gpus, Collective.ALL_REDUCE,
            algorithm=algo,
            steps=program.num_steps,
            traffic=program.pair_traffic(1 * MB),
        )
    # only phase 2 (the inter-group all-reduce, 2(g-1)=2 steps) crosses
    assert synth_penalty == pytest.approx(wan_rtt * 2)
    assert synth_penalty < ring_penalty
    # the cost model reads a registered program's traffic off the
    # algorithm's own flows, which sum to the program's pair traffic
    with temporarily_registered(program) as (algo,):
        assert pair_traffic(
            algo, Collective.ALL_REDUCE, range(8), 1 * MB
        ) == program.pair_traffic(1 * MB)


@pytest.mark.parametrize("size", [64 * KB, 64 * MB])
def test_hierarchical_beats_flat_ring_on_multi_region_fingerprint(
    two_regions, size
):
    """Satellite acceptance: on the ``multi_region`` fingerprint the
    two-level schedule out-predicts the flat locality ring at both a
    latency-probe and a bandwidth-probe size."""
    cluster, gpus = two_regions
    program = hierarchical_allreduce_program(
        [[0, 1, 2, 3], [4, 5, 6, 7]], name="synth:test-wan-beats/w8"
    )
    with temporarily_registered(program) as (algo,):
        hier = estimate_seconds(
            cluster, gpus, Collective.ALL_REDUCE, size,
            algorithm=algo, channels=1,
            ring=tuple(range(8)), chunk_bytes=256 * KB,
        )
        best_flat_ring = min(
            estimate_seconds(
                cluster, gpus, Collective.ALL_REDUCE, size,
                algorithm=RING, channels=channels,
                ring=ring, chunk_bytes=256 * KB,
            )
            for channels in (1, 2)
            for ring in (tuple(range(8)), tuple(reversed(range(8))))
        )
    assert hier < best_flat_ring


def test_planner_on_two_regions_prefers_locality_consistent_orders(
    two_regions,
):
    # sanity: with no synth programs registered the planner still plans,
    # and its WAN-aware estimates keep the ranking sorted
    cluster, gpus = two_regions
    ranked = StrategyPlanner(cluster).plan(
        Collective.ALL_REDUCE, 16 * MB, gpus
    )
    costs = [s.predicted_seconds for s in ranked]
    assert costs == sorted(costs)
    assert all(
        not s.candidate.algorithm.startswith("synth:") for s in ranked
    )
