"""Recursive halving-doubling AllReduce.

The classic butterfly AllReduce (Rabenseifner): a recursive-halving
ReduceScatter followed by a recursive-doubling AllGather.  Each phase runs
``log2(n)`` exchange steps, so the whole collective takes ``2*log2(n)``
latency hops against the ring's ``2*(n-1)`` — the canonical small-message
winner — while each rank still moves the bandwidth-optimal
``2*S*(n-1)/n`` bytes in total.  The trade is *where* those bytes go: the
first halving step pairs ranks ``n/2`` apart, so half the vector crosses
the network bisection, which is exactly what an oversubscribed spine
punishes at large sizes.  That tension (latency-optimal vs
bisection-heavy) is what makes the algorithm a useful arm for the
:mod:`repro.autotune` planner.

This module holds the closed-form **traffic model**; the bytes move
through the one executor running
:func:`repro.collectives.generators.halving_doubling_program`, and tests
cross-check the two.  The schedule requires a power-of-two world; the
registry-level algorithm
(:class:`repro.core.algorithms.HalvingDoublingAlgorithm`) falls back to
rings otherwise.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .types import validate_world


def is_power_of_two(world: int) -> bool:
    return world >= 1 and (world & (world - 1)) == 0


def hd_steps(world: int) -> int:
    """Latency hops of halving-doubling AllReduce: 2*log2(n)."""
    validate_world(world)
    if not is_power_of_two(world):
        raise ValueError(f"halving-doubling needs a power-of-two world, got {world}")
    return 2 * (world.bit_length() - 1)


def halving_doubling_traffic(
    order: Sequence[int], out_bytes: float
) -> Dict[Tuple[int, int], float]:
    """Bytes per directed (src, dst) rank pair for one AllReduce.

    At the step with partner mask ``m`` each rank exchanges ``S*m/n``
    bytes with the rank whose *position* differs by ``m``; every pair
    appears once in the halving phase and once in the doubling phase.
    """
    order = list(order)
    n = len(order)
    validate_world(n)
    if not is_power_of_two(n):
        raise ValueError(f"halving-doubling needs a power-of-two world, got {n}")
    traffic: Dict[Tuple[int, int], float] = {}
    mask = n >> 1
    while mask:
        nbytes = 2.0 * out_bytes * mask / n  # once per phase
        for v in range(n):
            pair = (order[v], order[v ^ mask])
            traffic[pair] = traffic.get(pair, 0.0) + nbytes
        mask >>= 1
    return traffic
