"""Synthetic stand-ins for the proprietary production data (Figures 2, 3a).

Two of the paper's motivating artifacts come from "a production trace
collected at one of the largest social network companies" and cannot be
published:

* **Figure 2** — the training-time breakdown (idle / memcpy / compute /
  communication) of models from four product groups.  We synthesize
  per-group breakdowns with the qualitative property the paper draws from
  the figure: "data communication constitutes a significant portion of
  the training time."  The numbers are generated from a seeded model of
  plausible group mixes, not measured.
* **Figure 3a** — the empirical cross-rack ratio of production jobs on a
  2-hosts-per-rack spine-leaf cluster.  We regenerate the curve from the
  same generative assumption the paper states for its simulated
  counterpart (random ring ordering, jobs perfectly packed onto hosts),
  via both the closed-form expectation and Monte Carlo.

Both substitutions are documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.policies.ring_order import expected_random_cross_rack_ratio


@dataclass(frozen=True)
class TrainingBreakdown:
    """Fractions of iteration time per activity; sums to 1."""

    group: str
    idle: float
    memcpy: float
    compute: float
    comm: float

    def __post_init__(self) -> None:
        total = self.idle + self.memcpy + self.compute + self.comm
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"breakdown of {self.group} sums to {total}")


def product_group_breakdowns(seed: int = 2024) -> List[TrainingBreakdown]:
    """Synthetic Figure 2: four product groups, communication-heavy.

    The generator draws group mixes around archetypes (ranking models are
    memcpy/IO heavy, content-understanding models compute heavy, ...) with
    the constraint that exposed communication stays a significant share
    (15-45%), which is the property the paper's argument uses.
    """
    rng = random.Random(seed)
    archetypes = {
        "A": dict(idle=0.10, memcpy=0.15, compute=0.40, comm=0.35),
        "B": dict(idle=0.15, memcpy=0.10, compute=0.30, comm=0.45),
        "C": dict(idle=0.08, memcpy=0.22, compute=0.45, comm=0.25),
        "D": dict(idle=0.20, memcpy=0.12, compute=0.50, comm=0.18),
    }
    breakdowns = []
    for group, base in archetypes.items():
        noisy = {k: max(v * (1 + rng.uniform(-0.1, 0.1)), 0.01) for k, v in base.items()}
        total = sum(noisy.values())
        noisy = {k: v / total for k, v in noisy.items()}
        # re-normalize rounding drift into compute
        noisy["compute"] += 1.0 - sum(noisy.values())
        breakdowns.append(TrainingBreakdown(group=group, **noisy))
    return breakdowns


def empirical_cross_rack_curve(
    job_sizes: Sequence[int],
    *,
    hosts_per_rack: int = 2,
    gpus_per_host: int = 8,
    trials: int = 2000,
    seed: int = 7,
) -> Dict[int, float]:
    """Figure 3a's curve: expected cross-rack ratio vs job size (GPUs).

    Monte Carlo over random host orderings of perfectly packed jobs; the
    2-hosts-per-rack geometry matches the production cluster described in
    §2.2 ("Each rack connects two hosts, each with 8 GPUs and 8 NICs").
    """
    rng = random.Random(seed)
    curve: Dict[int, float] = {}
    for size in job_sizes:
        hosts = max(size // gpus_per_host, 1)
        if hosts <= hosts_per_rack:
            curve[size] = 1.0
            continue
        if hosts % hosts_per_rack:
            raise ValueError(f"job of {size} GPUs does not pack racks")
        racks = hosts // hosts_per_rack
        total_ratio = 0.0
        host_rack = [h // hosts_per_rack for h in range(hosts)]
        for _ in range(trials):
            order = list(range(hosts))
            rng.shuffle(order)
            cross = sum(
                1
                for i in range(hosts)
                if host_rack[order[i]] != host_rack[order[(i + 1) % hosts]]
            )
            total_ratio += cross / racks
        curve[size] = total_ratio / trials
    return curve


def simulated_cross_rack_curve(
    job_sizes: Sequence[int],
    *,
    hosts_per_rack: int = 4,
    gpus_per_host: int = 8,
) -> Dict[int, float]:
    """Figure 3b's curve (closed form): 4 hosts per rack."""
    curve: Dict[int, float] = {}
    for size in job_sizes:
        hosts = max(size // gpus_per_host, 1)
        if hosts <= hosts_per_rack:
            curve[size] = 1.0
        else:
            curve[size] = expected_random_cross_rack_ratio(hosts_per_rack, hosts)
    return curve
