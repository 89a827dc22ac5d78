"""Single-node numpy reference semantics for every collective kind.

This is the oracle the shared algorithm suite
(``tests/collectives/test_algorithm_reference.py``) holds every
registered algorithm — built-in or synthesized — against: every
algorithm names a chunk program and one executor
(:mod:`repro.collectives.executor`) runs it, and whatever the program,
the shared ``run_data`` must produce exactly these outputs.  It is
deliberately the other kind of code — whole-vector numpy one-liners, no
chunks, no schedule — and is the only reduction code outside the
executor.  Conventions (also the executor's):

* ``ALL_REDUCE`` — every rank gets the elementwise reduction;
* ``ALL_GATHER`` — every rank gets the concatenation, block ``r`` being
  rank ``r``'s input;
* ``REDUCE_SCATTER`` — rank ``r`` gets reduced block ``r`` of the input
  vector (inputs must be divisible into ``world`` equal blocks);
* ``BROADCAST`` — every rank gets the root's buffer;
* ``REDUCE`` — the root gets the reduction; non-root outputs are the
  inputs unchanged (NCCL leaves them unspecified, the executor keeps
  the input for determinism).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .types import Collective, ReduceOp, reduce_many


def reference_outputs(
    kind: Collective,
    inputs: Sequence[np.ndarray],
    *,
    op: ReduceOp = ReduceOp.SUM,
    root: int = 0,
) -> List[np.ndarray]:
    """Per-rank outputs of ``kind`` computed directly in numpy."""
    world = len(inputs)
    if world < 1:
        raise ValueError("need at least one rank")
    if kind is Collective.ALL_REDUCE:
        reduced = reduce_many(op, list(inputs))
        return [reduced.copy() for _ in range(world)]
    if kind is Collective.ALL_GATHER:
        gathered = np.concatenate([a.ravel() for a in inputs])
        return [gathered.copy() for _ in range(world)]
    if kind is Collective.REDUCE_SCATTER:
        flat = [a.ravel() for a in inputs]
        size = flat[0].size
        if size % world:
            raise ValueError(
                f"reduce-scatter input size {size} not divisible by {world}"
            )
        block = size // world
        reduced = reduce_many(op, flat)
        return [
            reduced[r * block : (r + 1) * block].copy() for r in range(world)
        ]
    if kind is Collective.BROADCAST:
        return [inputs[root].copy() for _ in range(world)]
    if kind is Collective.REDUCE:
        outputs = [a.copy() for a in inputs]
        outputs[root] = reduce_many(op, list(inputs))
        return outputs
    raise ValueError(f"unsupported collective {kind}")
