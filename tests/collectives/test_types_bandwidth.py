"""Collective types, size conventions, and bandwidth accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.collectives.bandwidth import algorithm_bandwidth, busbw_factor
from repro.collectives.chunking import chunk_bounds
from repro.collectives.types import (
    Collective,
    ReduceOp,
    input_bytes,
    reduce_many,
    validate_world,
)


# -- types ---------------------------------------------------------------------
def test_reduce_ops():
    a, b = np.array([1.0, 5.0]), np.array([3.0, 2.0])
    assert np.allclose(ReduceOp.SUM.combine(a, b), [4.0, 7.0])
    assert np.allclose(ReduceOp.PROD.combine(a, b), [3.0, 10.0])
    assert np.allclose(ReduceOp.MAX.combine(a, b), [3.0, 5.0])
    assert np.allclose(ReduceOp.MIN.combine(a, b), [1.0, 2.0])


def test_reduce_many():
    arrays = [np.full(3, float(i)) for i in range(1, 5)]
    assert np.allclose(reduce_many(ReduceOp.SUM, arrays), 10.0)
    assert np.allclose(reduce_many(ReduceOp.MAX, arrays), 4.0)
    with pytest.raises(ValueError):
        reduce_many(ReduceOp.SUM, [])


def test_input_bytes_follows_output_convention():
    # "512 KB AllGather corresponds to 128 KB input per GPU" (4 GPUs).
    assert input_bytes(Collective.ALL_GATHER, 512 * 1024, 4) == 128 * 1024
    assert input_bytes(Collective.ALL_REDUCE, 1000, 4) == 1000
    assert input_bytes(Collective.REDUCE_SCATTER, 250, 4) == 1000


def test_validate_world():
    validate_world(2)
    with pytest.raises(ValueError):
        validate_world(1)


# -- chunking --------------------------------------------------------------------
def test_chunk_bounds_example():
    assert chunk_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]


@given(st.integers(0, 10_000), st.integers(1, 64))
def test_chunk_bounds_properties(total, parts):
    bounds = chunk_bounds(total, parts)
    assert len(bounds) == parts
    assert bounds[0][0] == 0 and bounds[-1][1] == total
    sizes = [hi - lo for lo, hi in bounds]
    assert sum(sizes) == total
    assert max(sizes) - min(sizes) <= 1
    for (l0, h0), (l1, h1) in zip(bounds, bounds[1:]):
        assert h0 == l1


def test_chunk_bounds_validation():
    with pytest.raises(ValueError):
        chunk_bounds(10, 0)
    with pytest.raises(ValueError):
        chunk_bounds(-1, 2)


# -- bandwidth accounting ----------------------------------------------------------
def test_busbw_factors():
    assert busbw_factor(Collective.ALL_REDUCE, 4) == pytest.approx(1.5)
    assert busbw_factor(Collective.ALL_GATHER, 4) == pytest.approx(0.75)
    assert busbw_factor(Collective.REDUCE_SCATTER, 8) == pytest.approx(7 / 8)
    assert busbw_factor(Collective.BROADCAST, 4) == 1.0


def test_algorithm_bandwidth():
    assert algorithm_bandwidth(1e9, 0.5) == pytest.approx(2e9)
    with pytest.raises(ValueError):
        algorithm_bandwidth(1e9, 0.0)


def test_bus_bandwidth_composes():
    # nccl-tests busbw = algbw * factor; at two ranks AllReduce's is 1.
    busbw = algorithm_bandwidth(1e9, 1.0) * busbw_factor(Collective.ALL_REDUCE, 2)
    assert busbw == pytest.approx(1e9)


@given(st.integers(2, 64))
def test_allreduce_factor_approaches_two(world):
    f = busbw_factor(Collective.ALL_REDUCE, world)
    assert 1.0 <= f < 2.0
