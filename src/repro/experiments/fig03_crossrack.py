"""Figure 3 — cross-rack ratio of random vs optimal rings.

Two panels:

* **(a) [Empirical] 2 hosts/rack** — the paper computes the cross-rack
  ratio of production jobs; we regenerate the curve via Monte Carlo over
  random host-major ring orders on the same geometry (2 hosts of 8 GPUs
  per rack), which is the stated generative model.
* **(b) [Simulated] 4 hosts/rack** — the paper simulates a cluster at the
  company's scale; we evaluate both the closed-form expectation and a
  placement-level Monte Carlo on an actual simulated cluster using the
  repository's placement and ring-order machinery (an end-to-end check
  that `cross_rack_ratio` agrees with the combinatorics).

Expected shape: ratios start at 1 for single-rack jobs, grow with job
size, and approach 2x (panel a) and 4x (panel b) — the paper's worst
cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..cluster.placement import ClusterAllocator
from ..cluster.specs import custom_cluster
from ..core.policies.ring_order import (
    cross_rack_ratio,
    expected_random_cross_rack_ratio,
    locality_ring_order,
    random_host_major_order,
)
from ..workloads.production import (
    empirical_cross_rack_curve,
    simulated_cross_rack_curve,
)
from .report import broken, print_table, require

DEFAULT_JOB_SIZES = (16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class CrossRackPoint:
    job_size: int
    ratio_2hosts: float
    ratio_4hosts: float


def run_curves(
    job_sizes: Sequence[int] = DEFAULT_JOB_SIZES,
    *,
    trials: int = 2000,
    seed: int = 7,
) -> List[CrossRackPoint]:
    """Both panels' expected cross-rack ratios per job size."""
    empirical = empirical_cross_rack_curve(job_sizes, trials=trials, seed=seed)
    simulated = simulated_cross_rack_curve(job_sizes)
    return [
        CrossRackPoint(size, empirical[size], simulated[size])
        for size in job_sizes
    ]


def validate_on_cluster(
    job_size: int = 128,
    *,
    trials: int = 200,
    seed: int = 3,
) -> Dict[str, float]:
    """Cross-check the closed form on a real simulated cluster.

    Places a perfectly packed job on a spine-leaf cluster, draws random
    host-major rings, and compares the measured mean ratio (via the
    policy module's `cross_rack_ratio`) with the closed-form expectation.
    """
    gpus_per_host, hosts_per_rack = 8, 4
    hosts_needed = job_size // gpus_per_host
    cluster = custom_cluster(
        num_spines=2,
        num_leaves=max(hosts_needed // hosts_per_rack, 2),
        hosts_per_leaf=hosts_per_rack,
        gpus_per_host=gpus_per_host,
        name="fig3-validation",
    )
    allocator = ClusterAllocator(cluster, seed=seed)
    gpus = allocator.place_compact("job", job_size)
    rng = random.Random(seed)
    measured = sum(
        cross_rack_ratio(cluster, gpus, random_host_major_order(gpus, rng))
        for _ in range(trials)
    ) / trials
    optimal = cross_rack_ratio(cluster, gpus, locality_ring_order(cluster, gpus))
    expected = expected_random_cross_rack_ratio(hosts_per_rack, hosts_needed)
    return {"measured": measured, "closed_form": expected, "optimal": optimal}


def check(result: Tuple[List[CrossRackPoint], Dict[str, float]]) -> List[str]:
    """Figure 3's claims that ``(points, validation)`` breaks."""
    points, v = result
    a, b = [p.ratio_2hosts for p in points], [p.ratio_4hosts for p in points]
    return broken({
        "both panels grow with job size": a == sorted(a) and b == sorted(b),
        f"largest job's ratios {a[-1]:.3f} in [1.8, 2], {b[-1]:.3f} in [3.5, 4]": (
            1.8 <= a[-1] <= 2.0 and 3.5 <= b[-1] <= 4.0
        ),
        f"cluster Monte Carlo {v['measured']:.3f} within 10% of {v['closed_form']:.3f}": (
            abs(v["measured"] - v["closed_form"]) <= 0.10 * v["closed_form"]
        ),
        "the locality ring is optimal": v["optimal"] == 1.0,
    })


def main() -> Dict[str, object]:
    points = run_curves()
    print_table(
        ["Job size (GPUs)", "(a) 2 hosts/rack", "(b) 4 hosts/rack"],
        [
            (p.job_size, f"{p.ratio_2hosts:.2f}x", f"{p.ratio_4hosts:.2f}x")
            for p in points
        ],
        title="Figure 3 — expected cross-rack ratio of a random ring",
    )
    validation = validate_on_cluster()
    print_table(
        ["Measured (cluster MC)", "Closed form", "Optimal ring"],
        [
            (
                f"{validation['measured']:.2f}x",
                f"{validation['closed_form']:.2f}x",
                f"{validation['optimal']:.2f}x",
            )
        ],
        title="Validation — 128-GPU job on a simulated 4-hosts/rack cluster",
    )
    require(check((points, validation)))
    return {}
