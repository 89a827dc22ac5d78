"""Recursive halving-doubling: traffic model and the butterfly program
through the executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import pair_traffic
from repro.collectives import builtin_plan
from repro.collectives.halving_doubling import is_power_of_two
from repro.collectives.types import Collective, ReduceOp
from repro.core.algorithms import AlgorithmContext, get_algorithm
from repro.errors import MalformedProgramError

from .oracles import halving_doubling_traffic, hd_steps, steps_for


def view_traffic(order, out_bytes):
    """Per-pair bytes of the flows the registry's algorithm launches."""
    return pair_traffic(get_algorithm("halving_doubling"), Collective.ALL_REDUCE, order, out_bytes)


def test_is_power_of_two():
    assert [n for n in range(1, 17) if is_power_of_two(n)] == [1, 2, 4, 8, 16]


def test_hd_steps_is_two_log2():
    assert hd_steps(2) == 2
    assert hd_steps(4) == 4
    assert hd_steps(8) == 6
    for world in (2, 4, 8, 16, 32):
        assert builtin_plan("halving_doubling", Collective.ALL_REDUCE, world).steps == (
            hd_steps(world)
        )


def test_hd_steps_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        hd_steps(6)
    # the registry algorithm falls back to the ring there, steps included
    ctx = AlgorithmContext(Collective.ALL_REDUCE, 100, 6, 0, 0, tuple(range(6)), 1)
    assert get_algorithm("halving_doubling").steps(ctx) == steps_for(
        Collective.ALL_REDUCE, 6
    )


def test_traffic_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        halving_doubling_traffic(range(6), 100)
    assert view_traffic(range(6), 100) == pair_traffic(
        get_algorithm("ring"), Collective.ALL_REDUCE, range(6), 100
    )


def test_traffic_total_is_bandwidth_optimal():
    # per-rank egress 2*S*(n-1)/n; n ranks -> total 2*S*(n-1)
    for n in (2, 4, 8, 16):
        traffic = halving_doubling_traffic(range(n), 128.0)
        assert sum(traffic.values()) == pytest.approx(2 * 128.0 * (n - 1))
        assert view_traffic(range(n), 128.0) == traffic


def test_traffic_per_rank_egress_matches_ring():
    n = 8
    traffic = halving_doubling_traffic(range(n), 128.0)
    assert view_traffic(range(n), 128.0) == traffic
    for rank in range(n):
        egress = sum(v for (s, _), v in traffic.items() if s == rank)
        assert egress == pytest.approx(2 * 128.0 * (n - 1) / n)


def test_traffic_pairs_are_butterfly_partners():
    traffic = halving_doubling_traffic(range(4), 64.0)
    assert view_traffic(range(4), 64.0) == traffic
    # mask 2 pairs (0,2),(1,3); mask 1 pairs (0,1),(2,3) — each both ways
    assert set(traffic) == {
        (0, 2), (2, 0), (1, 3), (3, 1), (0, 1), (1, 0), (2, 3), (3, 2),
    }
    # the first halving step moves half the vector across the bisection
    assert traffic[(0, 2)] == pytest.approx(2 * 64.0 * 2 / 4)
    assert traffic[(0, 1)] == pytest.approx(2 * 64.0 * 1 / 4)


def test_traffic_respects_position_order():
    # permuting positions permutes which *ranks* are bisection partners
    traffic = halving_doubling_traffic([3, 1, 0, 2], 64.0)
    assert (3, 0) in traffic and (1, 2) in traffic
    assert view_traffic([3, 1, 0, 2], 64.0) == traffic


def butterfly(world):
    return builtin_plan("halving_doubling", Collective.ALL_REDUCE, world)


def test_executor_validation():
    with pytest.raises(MalformedProgramError, match="power-of-two"):
        butterfly(6)
    plan = butterfly(4)
    with pytest.raises(ValueError):
        plan.run([np.zeros(4)])
    with pytest.raises(ValueError):
        plan.run([np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(5)])


@given(
    world_exp=st.integers(1, 4),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_all_reduce_matches_numpy_sum(world_exp, size, seed):
    world = 2**world_exp
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(size) for _ in range(world)]
    outputs = butterfly(world).run(inputs)
    expected = np.sum(inputs, axis=0)
    assert len(outputs) == world
    for out in outputs:
        assert np.allclose(out, expected)


@pytest.mark.parametrize("op", list(ReduceOp))
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_all_reduce_ops_and_dtypes(op, dtype):
    world = 8
    rng = np.random.default_rng(7)
    inputs = [rng.integers(1, 5, size=13).astype(dtype) for _ in range(world)]
    outputs = butterfly(world).run(inputs, op)
    expected = inputs[0].copy()
    for arr in inputs[1:]:
        expected = op.combine(expected, arr)
    for out in outputs:
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expected)


def test_all_reduce_over_permuted_order():
    world = 4
    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal((3, 5)) for _ in range(world)]
    outputs = butterfly(world).run(inputs, order=[2, 0, 3, 1])
    expected = np.sum(inputs, axis=0)
    for out in outputs:
        assert out.shape == (3, 5)
        assert np.allclose(out, expected)


@pytest.mark.parametrize("order", [None, (3, 1, 0, 2)])
def test_plan_edge_bytes_match_traffic_model(order):
    world, elems, itemsize = 4, 32, 8
    predicted = halving_doubling_traffic(order or range(world), elems * itemsize)
    moved = butterfly(world).edge_bytes(elems, itemsize, order)
    assert moved == {k: int(v) for k, v in predicted.items()}
    assert view_traffic(order or range(world), elems * itemsize) == predicted


@pytest.mark.parametrize("elems", [13, 3])
def test_plan_edge_bytes_uneven_size(elems):
    # 13 (or 3, fewer than the chunk count) elements over 4 ranks:
    # chunk_bounds blocks are uneven, but the total moved still matches
    # the closed form to within block rounding
    world, itemsize = 4, 8
    moved = butterfly(world).edge_bytes(elems, itemsize)
    predicted = halving_doubling_traffic(range(world), elems * itemsize)
    assert set(moved) <= set(predicted)
    assert sum(moved.values()) == pytest.approx(sum(predicted.values()), rel=0.25)
