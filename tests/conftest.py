"""Shared fixtures for the test suite."""

import pytest

from repro.cluster.specs import ring_cluster, testbed_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.telemetry import TelemetryHub


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
def eight_gpus(cluster):
    """All GPUs (the 8-GPU single-app setup)."""
    return [g for h in range(4) for g in cluster.hosts[h].gpus]
