"""Alpha-beta cost model and static algorithm-selection tests."""

import pytest

from repro.collectives.cost_model import (
    LatencyModel,
    MCCS_LATENCY,
    NCCL_LATENCY,
    ring_allreduce_cost,
    select_ring_or_tree,
    tree_allreduce_cost,
)


def test_latency_model_composition():
    model = LatencyModel(base=10e-6, per_step=2e-6, datapath=50e-6)
    assert model.collective_latency(5) == pytest.approx(70e-6)


def test_latency_model_rejects_negative_steps():
    with pytest.raises(ValueError):
        NCCL_LATENCY.collective_latency(-1)


def test_mccs_latency_reflects_paper_range():
    """The paper measures the shim->service datapath at 50-80 us."""
    extra = MCCS_LATENCY.datapath - NCCL_LATENCY.datapath
    assert 50e-6 <= extra <= 80e-6


def test_ring_cost_scales_linearly_in_size():
    c1 = ring_allreduce_cost(1e6, 4, alpha=1e-5, beta=1e-10)
    c2 = ring_allreduce_cost(2e6, 4, alpha=1e-5, beta=1e-10)
    assert c2 - c1 == pytest.approx(2 * (3 / 4) * 1e6 * 1e-10)


def test_tree_cost_logarithmic_latency():
    c8 = tree_allreduce_cost(0.0 + 1.0, 8, alpha=1.0, beta=0.0)
    c64 = tree_allreduce_cost(1.0, 64, alpha=1.0, beta=0.0)
    assert c64 - c8 == pytest.approx(2 * 3)  # log2 64 - log2 8 = 3 doublings


def test_selection_small_messages_prefer_tree_on_large_worlds():
    assert select_ring_or_tree(1024, 256) == "tree"


def test_selection_large_messages_prefer_ring():
    assert select_ring_or_tree(512 * 1024 * 1024, 256) == "ring"


def test_selection_validates_world():
    with pytest.raises(ValueError):
        select_ring_or_tree(1024, 1)

