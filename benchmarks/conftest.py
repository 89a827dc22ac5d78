"""Benchmark harness configuration.

The leaf benchmarks here time the simulator core, the control plane,
the synthesizer, the gateway and the ablation sweeps.  Simulations are
deterministic, so a benchmark that runs one regeneration does a single
round (``benchmark.pedantic(rounds=1)``).  The paper figures are not
benchmarks: ``python -m repro.experiments NAME`` prints each one at full
scale and raises when it breaks a claim its module's ``check`` states.
"""

import json

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once


def write_results(path, results):
    """Write a module's ``results`` sections into the JSON file ``path``.

    A section this run filled replaces the one on disk; every other
    section is kept as it is, so a ``-k`` run that measured one section
    leaves the rest of the committed file byte-identical.
    """
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update((name, section) for name, section in results.items() if section)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_writer():
    return write_results
