"""Figures 2–8 reproduce at reduced scale.

Each module's ``check`` states the figure's claims once; ``main`` holds
the full-scale run to them and these tests hold a scaled-down run.
"""

import pytest

from repro.collectives.types import Collective
from repro.experiments import (
    fig02_breakdown,
    fig03_crossrack,
    fig06_single_app,
    fig07_reconfig,
    fig08_multi_app,
)
from repro.netsim.units import KB, MB


# -- Figure 2 ----------------------------------------------------------------
@pytest.fixture(scope="module")
def fig02_small():
    return (
        fig02_breakdown.run_breakdowns(),
        fig02_breakdown.measure_vgg_breakdown(iterations=2),
    )


def test_fig02_reproduces(fig02_small):
    assert fig02_breakdown.check(fig02_small) == []


# -- Figure 3 ----------------------------------------------------------------
@pytest.fixture(scope="module")
def fig03_small():
    return (
        fig03_crossrack.run_curves(job_sizes=(16, 64, 512), trials=400, seed=1),
        fig03_crossrack.validate_on_cluster(job_size=64, trials=120, seed=2),
    )


def test_fig03_reproduces(fig03_small):
    assert fig03_crossrack.check(fig03_small) == []


# -- Figure 6 -----------------------------------------------------------------
@pytest.fixture(scope="module")
def fig06_small():
    return fig06_single_app.run_fig06(
        setups=("8gpu",),
        kinds=(Collective.ALL_REDUCE,),
        sizes=(512 * KB, 128 * MB),
        trials=6,
        iters=1,
    )


def test_fig06_reproduces(fig06_small):
    assert fig06_single_app.check(fig06_small) == []


# -- Figure 7 -----------------------------------------------------------------
def test_fig07_drop_and_recovery():
    timeline = fig07_reconfig.run_fig07(duration=16.0, bg_start=5.0, reconfig_at=10.0)
    assert fig07_reconfig.check(timeline) == []


# -- Figure 8 -----------------------------------------------------------------
@pytest.fixture(scope="module")
def fig08_small():
    return fig08_multi_app.run_fig08(
        setups=("setup1", "setup3"),
        trials=3,
        duration=1.0,
        warmup=0.2,
    )


def test_fig08_reproduces(fig08_small):
    assert fig08_multi_app.check(fig08_small) == []
