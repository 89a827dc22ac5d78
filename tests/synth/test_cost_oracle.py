"""One cost model: a synthesized candidate costs what the program closed
form (``cost_oracle.estimate_program_seconds``) says, bit for bit.

The synthesizer wraps every candidate as a ``SynthAlgorithm`` and scores
it through :func:`repro.autotune.cost.estimate_seconds` — identity ring,
the program's own channel count — exactly as the planner scores a
built-in.  Placements: the testbed's 8- and 4-GPU setups, two two-region
placements and six random 8–32-GPU placements of the 768-GPU cluster;
every collective kind; both search probes plus a size no chunk count
divides.
"""

import random

import pytest

import cost_oracle as oracle
from repro.autotune import estimate_seconds
from repro.cluster.specs import large_cluster, multi_region_cluster, testbed_cluster
from repro.collectives.types import Collective
from repro.experiments.setups import single_app_gpus
from repro.netsim.fabric import RegionSpec
from repro.synth import SynthAlgorithm, Synthesizer
from repro.synth.search import BANDWIDTH_PROBE_BYTES, LATENCY_PROBE_BYTES

SIZES = (LATENCY_PROBE_BYTES, BANDWIDTH_PROBE_BYTES, 1_000_003)


def _placements():
    testbed = testbed_cluster()
    yield "testbed/8gpu", testbed, list(single_app_gpus(testbed, "8gpu"))
    yield "testbed/4gpu", testbed, list(single_app_gpus(testbed, "4gpu"))
    regions = multi_region_cluster(RegionSpec())
    yield "two_region/one-per-host", regions, [h.gpus[0] for h in regions.hosts]
    dense = multi_region_cluster(RegionSpec(), gpus_per_host=2)
    yield "two_region/hosts2-5", dense, [g for h in dense.hosts[2:6] for g in h.gpus]
    big = large_cluster()
    for seed in range(6):
        rng = random.Random(seed)
        world = rng.choice([8, 12, 16, 24, 32])
        gpus = sorted(rng.sample(big.gpus, world), key=lambda g: g.global_id)
        yield f"large/seed{seed}/w{world}", big, gpus


PLACEMENTS = list(_placements())


@pytest.mark.parametrize(
    "cluster, gpus", [p[1:] for p in PLACEMENTS], ids=[p[0] for p in PLACEMENTS]
)
def test_estimate_seconds_equals_the_program_closed_form(cluster, gpus):
    identity = tuple(range(len(gpus)))
    compared = 0
    for kind in Collective:
        synthesizer = Synthesizer(cluster, gpus)
        for program in synthesizer._generate(kind):
            algorithm = SynthAlgorithm(program, fingerprint=synthesizer.fingerprint)
            for size in SIZES:
                assert estimate_seconds(
                    cluster, gpus, kind, size,
                    algorithm=algorithm, channels=program.channels,
                    ring=identity,
                ) == oracle.estimate_program_seconds(
                    cluster, gpus, program, size
                ), (program.name, size)
                compared += 1
        # and the search's own scores are those numbers
        for scored in synthesizer.search(kind):
            assert (scored.latency_seconds, scored.bandwidth_seconds) == tuple(
                oracle.estimate_program_seconds(cluster, gpus, scored.program, probe)
                for probe in (LATENCY_PROBE_BYTES, BANDWIDTH_PROBE_BYTES)
            )
    assert compared >= 3 * (2 + 4 * 2)
