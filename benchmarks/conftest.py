"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's figures and prints the
rows/series the paper plots.  Simulations are deterministic, so each
benchmark runs a single round (``benchmark.pedantic(rounds=1)``) — the
timing measures the cost of regenerating the figure, and the printed
tables are the scientific output.

Scale knobs: the benchmarks default to configurations that finish in
seconds to a couple of minutes.  Full paper-scale sweeps run through the
experiment entry point (e.g. ``python -m repro.experiments fig11``).
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
