"""Shared fixtures for the test suite."""

import contextlib

import pytest
from hypothesis import settings

from repro.cluster.specs import ring_cluster, testbed_cluster
from repro.core.algorithms import register_algorithm, unregister_algorithm
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.synth import SynthAlgorithm
from repro.telemetry import TelemetryHub

#: The CI chaos job's exploration profile (``--hypothesis-profile chaos``
#: with a ``--hypothesis-seed`` matrix): fresh examples per seed, many of
#: them.  Tier-1 keeps the chaos machine's derandomized default set.
settings.register_profile("chaos", derandomize=False, max_examples=200, deadline=None)


@pytest.fixture
def cluster():
    """A fresh Figure 5a testbed cluster."""
    return testbed_cluster()


@pytest.fixture
def hub(cluster):
    """A telemetry hub on the testbed's simulator, for components built
    without a deployment (a deployment builds its own)."""
    return TelemetryHub(cluster.sim)


@pytest.fixture
def deployment(cluster):
    """An MCCS deployment over the testbed."""
    return MccsDeployment(cluster)


@pytest.fixture
def manager(deployment):
    """A centralized manager attached to the deployment."""
    return CentralManager(deployment)


@pytest.fixture
def four_gpus(cluster):
    """One GPU per host (the 4-GPU single-app setup)."""
    return [cluster.hosts[h].gpus[0] for h in range(4)]


@pytest.fixture
def temporarily_registered():
    """``with temporarily_registered(*programs) as algorithms:`` registers
    synthesized programs for the block and removes them after it, so no
    test leaks a candidate into another's planner runs."""

    @contextlib.contextmanager
    def registered(*programs, fingerprint=None):
        algorithms = []
        try:
            for program in programs:
                algorithm = SynthAlgorithm(program, fingerprint=fingerprint)
                register_algorithm(algorithm)
                algorithms.append(algorithm)
            yield algorithms
        finally:
            for algorithm in algorithms:
                unregister_algorithm(algorithm.name)

    return registered


@pytest.fixture
def eight_gpus(cluster):
    """All GPUs (the 8-GPU single-app setup)."""
    return [g for h in range(4) for g in cluster.hosts[h].gpus]
