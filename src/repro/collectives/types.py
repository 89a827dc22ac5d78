"""Common collective-communication vocabulary.

Defines the collective kinds and reduction operators supported by the
reproduction, mirroring the NCCL API surface the paper targets (§2.1 lists
broadcast, reduce, allgather, reducescatter and allreduce as the common
operators; the prototype ports NCCL's ring AllReduce and AllGather kernels
and notes other operations are straightforward).
"""

from __future__ import annotations

import enum
import numpy as np


class Collective(enum.Enum):
    """Collective operation kinds."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    BROADCAST = "broadcast"
    REDUCE = "reduce"

    def __str__(self) -> str:
        return self.value


class ReduceOp(enum.Enum):
    """Reduction operators (ncclRedOp_t analogue)."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"

    @property
    def ufunc(self) -> np.ufunc:
        """The numpy ufunc; ``ufunc(a, b, out=a)`` reduces in place."""
        return _NUMPY_OPS[self]

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Apply the operator elementwise."""
        return self.ufunc(a, b)


_NUMPY_OPS: dict = {
    ReduceOp.SUM: np.add,
    ReduceOp.PROD: np.multiply,
    ReduceOp.MAX: np.maximum,
    ReduceOp.MIN: np.minimum,
}


def reduce_many(op: ReduceOp, arrays: list) -> np.ndarray:
    """Fold ``op`` over a list of equally-shaped arrays."""
    if not arrays:
        raise ValueError("need at least one array")
    acc = arrays[0].copy()
    for arr in arrays[1:]:
        acc = op.combine(acc, arr)
    return acc


def input_bytes(kind: Collective, out_bytes: int, world: int) -> int:
    """Per-rank input buffer size given the *output* buffer size.

    The paper measures data size "by output buffers" (§6.2), e.g. a 512 KB
    AllGather on 4 GPUs corresponds to a 128 KB input per GPU.
    """
    if world <= 0:
        raise ValueError("world must be positive")
    if kind is Collective.ALL_GATHER:
        return out_bytes // world
    if kind is Collective.REDUCE_SCATTER:
        return out_bytes * world
    return out_bytes


def validate_world(world: int) -> None:
    if world < 2:
        raise ValueError(f"collectives need at least 2 ranks, got {world}")
