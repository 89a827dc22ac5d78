"""Every registered algorithm is byte-exact vs the numpy reference.

The registry (:mod:`repro.core.algorithms`) is the extension point the
autotuner searches over; this ONE parametrized suite pins down that each
registered family — built-in *and* synthesized chunk-level programs —
produces through its actual ``run_data`` interface exactly what the
single-node numpy oracle (:mod:`repro.collectives.reference`) computes,
for every supported collective kind, world sizes 2–9, non-power-of-two
sizes, every operator and several dtypes.  Any strategy the tuner
installs is therefore *always correct*, only faster or slower.

Synthesized programs are registered by a module-scoped fixture, with no
topology fingerprint, so collecting this module leaves the process-wide
registry untouched and, while it runs, they can never leak into planner
candidate sets (the planner requires an exact fingerprint match).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.reference import reference_outputs
from repro.collectives.types import Collective, ReduceOp
from repro.core.algorithms import (
    AlgorithmContext,
    get_algorithm,
    registered_algorithms,
    unregister_algorithm,
)
from repro.synth import (
    hierarchical_allreduce_program,
    register_program,
    ring_program,
)

# Synthesized entries exercised by the shared suite: a two-level
# hierarchical all-reduce (its native world is 4; every other world
# falls back to the ring path) and an IR-compiled ring all-gather.
_SYNTH_PROGRAMS = (
    hierarchical_allreduce_program(
        [[0, 1], [2, 3]], name="synth:test-hier-ar/w4"
    ),
    ring_program(
        Collective.ALL_GATHER, 5, name="synth:test-ring-ag/w5"
    ),
)

ALL_ALGORITHMS = registered_algorithms() + [p.name for p in _SYNTH_PROGRAMS]


@pytest.fixture(scope="module", autouse=True)
def _synth_programs_registered():
    for program in _SYNTH_PROGRAMS:
        register_program(program)
    yield
    for program in _SYNTH_PROGRAMS:
        unregister_algorithm(program.name)


def _run(name, kind, inputs, op, root=0):
    """Execute ``kind`` through the registry's run_data interface."""
    world = len(inputs)
    ctx = AlgorithmContext(
        kind=kind,
        out_bytes=inputs[0].nbytes,
        world=world,
        rank=0,
        root=root,
        ring_order=tuple(range(world)),
        channels=1,
    )
    return get_algorithm(name).run_data(ctx, list(inputs), op)


def _make_inputs(kind, world, elems, dtype, rng):
    """Per-rank inputs sized by the kind's buffer convention.

    Small positive integers keep every operator (including PROD) exact
    in every dtype, so equality really is byte-for-byte.
    """
    if kind is Collective.REDUCE_SCATTER:
        size = elems * world  # must divide into world equal blocks
    else:
        size = elems  # ALL_GATHER: per-rank block; others: full vector
    return [
        rng.integers(1, 4, size=size).astype(dtype) for _ in range(world)
    ]


def test_synth_entries_visible_to_the_shared_suite():
    assert {"ring", "tree", "halving_doubling"} <= set(ALL_ALGORITHMS)
    assert set(ALL_ALGORITHMS) <= set(registered_algorithms())


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
@given(
    kind=st.sampled_from(list(Collective)),
    world=st.integers(2, 9),
    elems=st.sampled_from([1, 3, 5, 7, 11, 17, 23, 33]),
    op=st.sampled_from(list(ReduceOp)),
    dtype=st.sampled_from([np.int32, np.int64, np.float32, np.float64]),
    root=st.integers(0, 8),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_registered_algorithms_byte_exact_vs_reference(
    name, kind, world, elems, op, dtype, root, seed
):
    root %= world
    rng = np.random.default_rng(seed)
    inputs = _make_inputs(kind, world, elems, dtype, rng)
    outputs = _run(name, kind, inputs, op, root=root)
    expected = reference_outputs(
        kind, [a.copy() for a in inputs], op=op, root=root
    )
    assert len(outputs) == world
    for rank, (out, want) in enumerate(zip(outputs, expected)):
        assert out.dtype == dtype
        np.testing.assert_array_equal(
            out.ravel(),
            want.ravel(),
            err_msg=f"{name} {kind} world={world} rank={rank}",
        )


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
@given(
    world=st.integers(2, 9),
    size=st.integers(1, 33),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_all_reduce_sum_matches_numpy_floats(name, world, size, seed):
    # float path: associative-order differences stay within allclose
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(size) for _ in range(world)]
    outputs = _run(name, Collective.ALL_REDUCE, inputs, ReduceOp.SUM)
    expected = np.sum(inputs, axis=0)
    for out in outputs:
        assert np.allclose(out, expected)
