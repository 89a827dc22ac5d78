"""Job arrival processes for the large-scale simulation (§6.5).

"The jobs arrival follows a Poisson distribution with the lambda set to
200ms" — i.e. exponential inter-arrival gaps with a 200 ms mean.  Job
sizes are "either 16 or 32 GPUs with equal probability", 50 jobs per
experiment.

The fleet experiments modulate each tenant's request rate with a
:class:`DiurnalProfile` — a sinusoidal daily cycle plus Gaussian burst
envelopes (see :class:`~repro.service.loadgen.FleetLoadGenerator`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class JobSpec:
    """One arriving job."""

    job_id: str
    num_gpus: int
    arrival_time: float


def poisson_arrivals(
    num_jobs: int,
    *,
    mean_interarrival: float = 0.200,
    sizes: Sequence[int] = (16, 32),
    size_weights: Optional[Sequence[float]] = None,
    seed: int = 0,
    prefix: str = "job",
) -> List[JobSpec]:
    """Draw a Poisson arrival sequence of jobs.

    Args:
        num_jobs: How many jobs arrive (50 in the paper).
        mean_interarrival: Mean exponential gap in seconds (0.2 s).
        sizes: Candidate GPU counts (16 or 32).
        size_weights: Optional selection weights (uniform by default).
        seed: RNG seed; vary across the paper's 5 repetitions.
        prefix: Job id prefix.
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    rng = random.Random(seed)
    now = 0.0
    jobs: List[JobSpec] = []
    for i in range(num_jobs):
        now += rng.expovariate(1.0 / mean_interarrival)
        size = rng.choices(list(sizes), weights=size_weights)[0]
        jobs.append(JobSpec(job_id=f"{prefix}{i}", num_gpus=size, arrival_time=now))
    return jobs


@dataclass(frozen=True)
class DiurnalProfile:
    """A time-varying rate multiplier: daily sinusoid + burst envelopes.

    The instantaneous factor is::

        factor(t) = max(floor, 1 + amplitude * sin(2*pi*(t - phase)/period)
                               + sum_i boost_i * exp(-((t - center_i)/width_i)**2 / 2))

    so a base Poisson rate ``lambda`` becomes the inhomogeneous rate
    ``lambda * factor(t)``.  ``peak_factor`` bounds the factor from
    above, which the capacity planner uses.

    Attributes:
        period: Length of one cycle in seconds (a scaled "day").
        amplitude: Sinusoid amplitude (0 = flat); must stay below 1 so
            the un-floored factor is positive.
        phase: Time of the sinusoid's zero upcrossing.
        bursts: ``(center, width, boost)`` Gaussian envelopes layered on
            top (flash crowds, shard failovers).
        floor: Lower clamp of the factor (quiet-hours traffic never
            drops to zero).
    """

    period: float = 60.0
    amplitude: float = 0.5
    phase: float = 0.0
    bursts: Tuple[Tuple[float, float, float], ...] = ()
    floor: float = 0.05

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("diurnal period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.floor < 0:
            raise ValueError("floor cannot be negative")
        for center, width, boost in self.bursts:
            if width <= 0 or boost < 0:
                raise ValueError(
                    f"burst ({center}, {width}, {boost}) needs width > 0 "
                    "and boost >= 0"
                )

    def rate_factor(self, t: float) -> float:
        """Instantaneous rate multiplier at time ``t``."""
        factor = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t - self.phase) / self.period
        )
        for center, width, boost in self.bursts:
            z = (t - center) / width
            factor += boost * math.exp(-0.5 * z * z)
        return max(self.floor, factor)

    @property
    def peak_factor(self) -> float:
        """Upper bound of :meth:`rate_factor` (sinusoid crest + all
        burst peaks; exact when bursts overlap, conservative otherwise)."""
        return max(
            self.floor,
            1.0 + self.amplitude + sum(boost for _, _, boost in self.bursts),
        )

