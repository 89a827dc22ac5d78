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

    Each row this run measured (a top-level key of a section) replaces
    the one on disk; every other row and section is kept as it is, so a
    ``-k`` run that measured one row leaves the rest of the committed
    file byte-identical, and ``compare_bench.py`` still guards every
    row.  A row the code no longer measures is deleted by hand.
    """
    merged = json.loads(path.read_text()) if path.exists() else {}
    for name, section in results.items():
        if section:
            merged.setdefault(name, {}).update(section)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_writer():
    return write_results
