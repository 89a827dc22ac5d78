"""Tree schedules, the double-tree program through the executor, traffic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.types import Collective

from repro.autotune import pair_traffic
from repro.collectives import builtin_plan
from repro.collectives.tree import TreeSchedule, binary_tree, double_binary_trees
from repro.core.algorithms import AlgorithmContext, get_algorithm

from .oracles import (
    double_tree_allreduce_traffic,
    tree_allreduce_traffic,
    tree_steps,
)


def test_tree_schedule_validation():
    with pytest.raises(ValueError):
        TreeSchedule((0, -1))  # rank 0's parent is itself
    with pytest.raises(ValueError):
        TreeSchedule((-1, -1))  # two roots
    with pytest.raises(ValueError):
        TreeSchedule((1, 0))  # cycle, no root


def test_binary_tree_layout():
    tree = binary_tree([0, 1, 2, 3, 4])
    assert tree.root == 0
    assert set(tree.children(0)) == {1, 2}
    assert set(tree.children(1)) == {3, 4}
    assert tree.depth() == 2


def test_binary_tree_over_permuted_order():
    tree = binary_tree([3, 1, 0, 2])
    assert tree.root == 3
    assert set(tree.children(3)) == {1, 0}
    assert tree.children(1) == [2]


def test_edges_are_child_parent_pairs():
    tree = binary_tree([0, 1, 2])
    assert sorted(tree.edges()) == [(1, 0), (2, 0)]


def test_double_trees_have_different_roots():
    t1, t2 = double_binary_trees(range(6))
    assert t1.root != t2.root


def test_tree_steps():
    tree = binary_tree(range(8))
    assert tree_steps(tree) == 2 * tree.depth()
    # the product's step count is the compiled double-tree program's
    for world in range(2, 20):
        ctx = AlgorithmContext(
            Collective.ALL_REDUCE, 1000, world, 0, 0, tuple(range(world)), 1
        )
        deepest = max(tree_steps(t) for t in double_binary_trees(range(world)))
        assert get_algorithm("tree").steps(ctx) == deepest
        assert builtin_plan("tree", Collective.ALL_REDUCE, world).steps == deepest


def test_tree_allreduce_traffic_counts_up_and_down():
    tree = binary_tree([0, 1, 2])
    traffic = tree_allreduce_traffic(tree, 100)
    assert traffic[(1, 0)] == 100 and traffic[(0, 1)] == 100
    assert traffic[(2, 0)] == 100 and traffic[(0, 2)] == 100
    assert sum(traffic.values()) == 4 * 100
    # lane 0 of the compiled double tree is this tree: one chunk-send up
    # and one down every edge
    sends = builtin_plan("tree", Collective.ALL_REDUCE, 3).sends
    lane0 = {
        (src, dst): len(chunks)
        for src in range(3)
        for dst, lane, chunks in sends[src]
        if lane == 0
    }
    assert lane0 == {pair: 1 for pair in traffic}


def test_double_tree_traffic_splits_in_half():
    trees = double_binary_trees(range(4))
    traffic = double_tree_allreduce_traffic(trees, 100)
    # each tree moves S/2 per edge both ways over 3 edges
    assert sum(traffic.values()) == pytest.approx(2 * 3 * 100 / 2 * 2)
    # the flows the registry's tree launches, summed per pair, are this
    assert pair_traffic(get_algorithm("tree"), Collective.ALL_REDUCE, range(4), 100) == traffic


def tree_plan(world):
    return builtin_plan("tree", Collective.ALL_REDUCE, world)


@given(st.integers(2, 9), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_double_tree_allreduce_correctness(world, seed):
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(12) for _ in range(world)]
    order = tuple(rng.permutation(world).tolist())
    outputs = tree_plan(world).run(inputs, order=order)
    expected = np.sum(inputs, axis=0)
    assert len(outputs) == world
    for out in outputs:
        assert np.allclose(out, expected)


@given(st.integers(2, 9), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_double_tree_folds_children_in_schedule_order(world, seed):
    """Bit-identical to folding by hand along each tree: a node adds its
    children in ``children()`` order, operands (target, payload)."""
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(10).astype(np.float32) for _ in range(world)]
    halves = [slice(0, 5), slice(5, 10)]
    expected = np.empty(10, np.float32)
    for tree, half in zip(double_binary_trees(range(world)), halves):
        def up(rank):
            acc = inputs[rank][half].copy()
            for child in tree.children(rank):
                acc = acc + up(child)
            return acc
        expected[half] = up(tree.root)
    for out in tree_plan(world).run(inputs):
        np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("world", [2, 3, 6, 8])
def test_plan_edge_bytes_match_traffic_model(world):
    order = list(np.random.default_rng(world).permutation(world))
    elems, itemsize = 50, 8  # even: the halves are exact
    predicted = double_tree_allreduce_traffic(
        double_binary_trees(order), elems * itemsize
    )
    moved = tree_plan(world).edge_bytes(elems, itemsize, order)
    assert moved == {pair: int(nbytes) for pair, nbytes in predicted.items()}
    tree = get_algorithm("tree")
    assert pair_traffic(tree, Collective.ALL_REDUCE, order, elems * itemsize) == predicted


def test_plan_edge_bytes_uneven_size():
    # 25 elements: the halves are 13 and 12, each tree still carries its
    # half once up and once down every edge
    world, itemsize = 5, 8
    trees = double_binary_trees(range(world))
    moved = tree_plan(world).edge_bytes(25, itemsize)
    for nelems, tree in zip((13, 12), trees):
        for pair, nbytes in tree_allreduce_traffic(tree, nelems * itemsize).items():
            moved[pair] -= int(nbytes)
    assert set(moved.values()) == {0}


def test_executor_input_count_checked():
    with pytest.raises(ValueError):
        tree_plan(3).run([np.zeros(4)])
