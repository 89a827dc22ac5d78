#!/usr/bin/env python
"""Large-scale simulation: 768 GPUs, Poisson job arrivals, ring policies.

A scaled-down run of the §6.5 experiment (Figure 11): ResNet-50 jobs of
16/32 GPUs arrive on a 24-rack, 768-GPU cluster and all-reduce their
gradients continuously.  Compares random rings against provider-optimized
rings (OR) and OR + fair flow assignment (MCCS), under both random and
compact placement.

Run:  python examples/large_scale_simulation.py
(Full paper scale, with the figure's claims checked:
python -m repro.experiments fig11.)
"""

import statistics

from repro.experiments.fig11_simulation import run_fig11

def main() -> None:
    for placement in ("compact", "random"):
        outcome = run_fig11(
            placement=placement,
            num_jobs=15,
            iterations=120,
            channels=4,
            seed=0,
        )
        print(f"placement = {placement} ({len(outcome.jobs)} jobs)")
        for solution in ("or", "or+ffa"):
            speedups = outcome.speedups(solution)
            print(
                f"  {solution:>7}: mean {statistics.mean(speedups):.2f}x, "
                f"median {statistics.median(speedups):.2f}x, "
                f"max {max(speedups):.2f}x vs random rings"
            )
        print()

if __name__ == "__main__":
    main()
