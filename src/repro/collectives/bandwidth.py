"""Algorithm- and bus-bandwidth accounting.

The paper reports *algorithm bandwidth* for the single-application study
(Figure 6) and *bus bandwidth* for the multi-application study (Figure 8),
both "as defined by nccl-tests" [25]:

* ``algbw = output_size / time``
* ``busbw = algbw * factor`` where the factor normalizes out the algorithm
  and the participant count so that the number reflects the hardware
  bottleneck bandwidth: ``2*(n-1)/n`` for AllReduce, ``(n-1)/n`` for
  AllGather and ReduceScatter, and 1 for Broadcast/Reduce.
"""

from __future__ import annotations

from .types import Collective, validate_world


def busbw_factor(kind: Collective, world: int) -> float:
    """nccl-tests bus-bandwidth correction factor."""
    validate_world(world)
    n = world
    if kind is Collective.ALL_REDUCE:
        return 2.0 * (n - 1) / n
    if kind in (Collective.ALL_GATHER, Collective.REDUCE_SCATTER):
        return (n - 1) / n
    if kind in (Collective.BROADCAST, Collective.REDUCE):
        return 1.0
    raise ValueError(f"unsupported collective {kind}")


def algorithm_bandwidth(out_bytes: float, seconds: float) -> float:
    """Algorithm bandwidth in bytes/s (divide by 1e9 for GB/s)."""
    if seconds <= 0:
        raise ValueError("duration must be positive")
    return out_bytes / seconds

