"""Figures 9–11 reproduce at reduced scale (each module's ``check``), and
Figure 11's placements are fixed before any solution runs."""

import pytest

from repro.cluster.specs import large_cluster
from repro.experiments import fig09_qos, fig10_dynamic, fig11_simulation
from repro.experiments.fig11_simulation import precompute_placements


@pytest.fixture(scope="module")
def fig09_small():
    # Two trials: ECMP's slowdown is a mean over path draws, and one draw
    # can spare a tenant.
    return fig09_qos.run_fig09(trials=2, iterations={"A": 4, "B": 3, "C": 3})


def test_fig09_reproduces(fig09_small):
    assert fig09_qos.check(fig09_small) == []


def test_fig10_timeline_story():
    timeline = fig10_dynamic.run_fig10(t1=1.0, t2=2.0, t3=3.0, t4=4.0, end=5.0)
    assert fig10_dynamic.check(timeline) == []


# -- Figure 11 -----------------------------------------------------------------
def test_fig11_placements_are_solution_independent():
    a = precompute_placements(placement="random", num_jobs=10, iterations=50, seed=3)
    b = precompute_placements(placement="random", num_jobs=10, iterations=50, seed=3)
    assert a == b
    sizes = {j.num_gpus for j in a}
    assert sizes <= {16, 32}


def test_fig11_compact_placement_jobs_pack():
    jobs = precompute_placements(placement="compact", num_jobs=6, iterations=50, seed=0)
    cl = large_cluster()
    for job in jobs:
        racks = {cl.rack_of(cl.gpu(i)) for i in job.gpu_ids}
        assert len(racks) == 1  # 16/32 GPUs fit one 32-GPU rack


@pytest.mark.slow
def test_fig11_small_run_shapes():
    # Three channels: at two, compact placement's mean OR speedup reads
    # 1.995x at 8 and at 12 jobs, under its 2x claim.
    pooled = fig11_simulation.run_fig11_repeated(
        repetitions=1, num_jobs=4, iterations=40, channels=3
    )
    assert fig11_simulation.check(pooled) == []
