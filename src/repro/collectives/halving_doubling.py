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

The schedule is
:func:`repro.collectives.generators.halving_doubling_program`; bytes,
flows and step count are all views of its compiled plan.  It requires a
power-of-two world; the registry-level algorithm
(:class:`repro.core.algorithms.HalvingDoublingAlgorithm`) falls back to
rings otherwise.
"""

from __future__ import annotations


def is_power_of_two(world: int) -> bool:
    return world >= 1 and (world & (world - 1)) == 0
