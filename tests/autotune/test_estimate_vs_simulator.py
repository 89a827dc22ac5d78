"""The simulator is the estimate's oracle.

:func:`repro.autotune.estimate_seconds` charges what a launch is charged
in simulation: the fixed latency of the plan's steps plus the busiest
resource's serial time (SCCL's bandwidth lower bound).  So it never
exceeds one collective's simulated duration, and it equals that duration
wherever the busiest resource stays saturated for the whole collective.

Durations come from ``experiments.setups.measure_static``: one collective
on a fresh deployment, ECMP routes, no flow policy, one pinned datapath
tag.  Where ECMP pins two connections of one rack to one spine, the
simulated time exceeds the estimate, which spreads a rack's bytes over
all its uplinks; the testbed's multi-channel rings and its trees are such
cases, and they are checked as bounds only.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import StrategyPlanner, estimate_seconds
from repro.cluster.specs import large_cluster, multi_region_cluster, testbed_cluster
from repro.collectives.types import Collective
from repro.core.algorithms import get_algorithm, register_algorithm, unregister_algorithm
from repro.experiments.setups import measure_static, single_app_gpus
from repro.netsim.fabric import RegionSpec
from repro.netsim.units import KB, MB
from repro.synth import SynthAlgorithm, Synthesizer, synthesize_and_register

TAG = "estimate-oracle"
SIZES = (64 * KB, 1 * MB, 64 * MB)
#: Relative slack for float summation order, nothing more.
RELATIVE = 1e-9


def two_region_cluster():
    return multi_region_cluster(RegionSpec())


FABRICS = {
    "testbed": testbed_cluster,
    "two_region": two_region_cluster,
    "large": large_cluster,
}


def _pick(ids):
    return lambda cluster: [cluster.gpus[i] for i in ids]


def _ids(gpus):
    return [gpu.global_id for gpu in gpus]


def _placements(include_testbed=True):
    """(label, cluster factory, GPU ids): the testbed's 8- and 4-GPU
    setups, the two-region fabric and five seeded 768-GPU placements."""
    if include_testbed:
        testbed = testbed_cluster()
        for setup in ("8gpu", "4gpu"):
            yield f"testbed/{setup}", testbed_cluster, _ids(single_app_gpus(testbed, setup))
    yield "two_region", two_region_cluster, list(range(8))
    for seed in range(5):
        rng = random.Random(seed)
        world = rng.choice([8, 12, 16, 24, 32])
        yield f"large/seed{seed}/w{world}", large_cluster, sorted(rng.sample(range(768), world))


def _parametrize(placements):
    placements = list(placements)
    return pytest.mark.parametrize(
        "make_cluster, ids", [p[1:] for p in placements], ids=[p[0] for p in placements]
    )


def _simulated(make_cluster, ids, kind, size, *, algorithm, channels, ring):
    return measure_static(
        make_cluster, _pick(ids), kind, size,
        algorithm=algorithm, channels=channels, ring=tuple(ring), iters=1, tag=TAG,
    )


def _estimated(cluster, ids, kind, size, *, algorithm, channels, ring):
    return estimate_seconds(
        cluster, _pick(ids)(cluster), kind, size,
        algorithm=get_algorithm(algorithm), channels=channels, ring=tuple(ring),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_estimate_never_exceeds_the_simulated_duration(data):
    """Random placements on every fabric, every kind, built-in and
    synthesized algorithms, 1–2 channels and random ring orders."""
    fabric = data.draw(st.sampled_from(sorted(FABRICS)), label="fabric")
    make_cluster = FABRICS[fabric]
    cluster = make_cluster()
    world = data.draw(st.integers(2, min(16, len(cluster.gpus))), label="world")
    ids = sorted(
        data.draw(
            st.lists(
                st.integers(0, len(cluster.gpus) - 1),
                min_size=world, max_size=world, unique=True,
            ),
            label="gpus",
        )
    )
    kind = data.draw(st.sampled_from(list(Collective)), label="kind")
    size = data.draw(st.sampled_from(SIZES + (3_000_001,)), label="size")
    family = data.draw(
        st.sampled_from(("ring", "tree", "halving_doubling", "synth")), label="family"
    )
    synthesized = None
    if family == "synth":
        programs = Synthesizer(cluster, _pick(ids)(cluster))._generate(kind)
        program = data.draw(st.sampled_from(programs), label="program")
        synthesized = SynthAlgorithm(program)
        register_algorithm(synthesized)
        algorithm, channels, ring = program.name, program.channels, range(world)
    else:
        algorithm = family
        channels = data.draw(st.sampled_from((1, 2)), label="channels")
        ring = data.draw(st.permutations(range(world)), label="ring")
    try:
        estimated = _estimated(
            cluster, ids, kind, size, algorithm=algorithm, channels=channels, ring=ring
        )
        simulated = _simulated(
            make_cluster, ids, kind, size, algorithm=algorithm, channels=channels, ring=ring
        )
    finally:
        if synthesized is not None:
            unregister_algorithm(synthesized.name)
    assert estimated <= simulated * (1 + RELATIVE)


@_parametrize(_placements())
def test_a_rank_order_ring_costs_exactly_its_simulated_duration(make_cluster, ids):
    cluster, ring = make_cluster(), range(len(ids))
    for kind in Collective:
        for size in SIZES:
            estimated = _estimated(
                cluster, ids, kind, size, algorithm="ring", channels=1, ring=ring
            )
            simulated = _simulated(
                make_cluster, ids, kind, size, algorithm="ring", channels=1, ring=ring
            )
            assert estimated == pytest.approx(simulated, rel=RELATIVE), (kind, size)


@_parametrize(_placements(include_testbed=False))
def test_a_rank_order_tree_costs_exactly_its_simulated_duration(make_cluster, ids):
    cluster, ring, kind = make_cluster(), range(len(ids)), Collective.ALL_REDUCE
    for size in SIZES:
        estimated = _estimated(
            cluster, ids, kind, size, algorithm="tree", channels=1, ring=ring
        )
        simulated = _simulated(
            make_cluster, ids, kind, size, algorithm="tree", channels=1, ring=ring
        )
        assert estimated == pytest.approx(simulated, rel=RELATIVE), size


@pytest.mark.parametrize("size", SIZES)
def test_every_two_region_candidate_costs_exactly_its_simulated_duration(size):
    cluster = two_region_cluster()
    gpus = [h.gpus[0] for h in cluster.hosts]
    algos = synthesize_and_register(cluster, gpus)
    try:
        ranked = StrategyPlanner(cluster).plan(Collective.ALL_REDUCE, size, gpus)
        assert {s.candidate.algorithm for s in ranked} >= {a.name for a in algos}
        for scored in ranked:
            candidate = scored.candidate
            simulated = _simulated(
                two_region_cluster, _ids(gpus), Collective.ALL_REDUCE, size,
                algorithm=candidate.algorithm, channels=candidate.channels,
                ring=candidate.ring,
            )
            assert scored.predicted_seconds == pytest.approx(
                simulated, rel=RELATIVE
            ), candidate
    finally:
        for algo in algos:
            unregister_algorithm(algo.name)


@pytest.mark.parametrize("size", SIZES)
def test_the_planners_pick_is_the_simulators_best_on_two_regions(size):
    """An estimate with terms the simulator does not charge ranks
    halving-doubling first here, which the simulator times 1.33–2.28×
    slower than ring/ch1."""
    cluster = two_region_cluster()
    gpus = [h.gpus[0] for h in cluster.hosts]
    planner = StrategyPlanner(cluster)
    simulated = {
        scored.candidate: _simulated(
            two_region_cluster, _ids(gpus), Collective.ALL_REDUCE, size,
            algorithm=scored.candidate.algorithm,
            channels=scored.candidate.channels,
            ring=scored.candidate.ring,
        )
        for scored in planner.plan(Collective.ALL_REDUCE, size, gpus)
    }
    pick = planner.best(Collective.ALL_REDUCE, size, gpus).candidate
    assert simulated[pick] <= min(simulated.values())


@pytest.mark.parametrize(
    "size, pick",
    [(64 * KB, ("halving_doubling", 1)), (1 * MB, ("ring", 2)), (64 * MB, ("ring", 2))],
)
def test_the_testbed_picks_stay_what_they_were(size, pick):
    cluster = testbed_cluster()
    best = StrategyPlanner(cluster).best(
        Collective.ALL_REDUCE, size, single_app_gpus(cluster, "8gpu")
    ).candidate
    assert (best.algorithm, best.channels, best.ring_label) == pick + ("rank_order",)
