"""Benchmark harness configuration.

The leaf benchmarks here time the simulator core, the control plane,
the synthesizer, the gateway and the ablation sweeps.  Simulations are
deterministic, so a benchmark that runs one regeneration does a single
round (``benchmark.pedantic(rounds=1)``).  The paper figures are not
benchmarks: ``python -m repro.experiments NAME`` prints each one at full
scale and raises when it breaks a claim its module's ``check`` states.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
