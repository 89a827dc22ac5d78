"""Fixtures for the telemetry tests.

Object ids (communicators, buffers, streams, events, ...) come
from process-global counters, and some of them feed the ECMP connection
hash — so tests that create them shift the path choices of every test
that runs after them.  The statistical assertions elsewhere in the suite
(e.g. the partial-adoption integration test) are calibrated against the
seed's id sequences; these tests therefore borrow private counters and
hand the untouched globals back, as if they had created nothing.
"""

import itertools

import pytest

import repro.baselines.nccl
import repro.cluster.gpu
import repro.cluster.ipc
import repro.core.communicator
import repro.core.reconfig
import repro.core.sync
import repro.transport.launcher

_GLOBAL_COUNTERS = [
    (repro.baselines.nccl, "_comm_counter"),
    (repro.cluster.gpu, "_buffer_counter"),
    (repro.cluster.gpu, "_stream_counter"),
    (repro.cluster.gpu, "_event_counter"),
    (repro.cluster.ipc, "_handle_counter"),
    (repro.core.communicator, "_comm_counter"),
    (repro.core.reconfig, "_session_counter"),
    (repro.core.sync, "_sync_counter"),
    (repro.transport.launcher, "_launch_counter"),
]


# Package-scoped so it also wraps module-scoped fixtures (which pytest
# instantiates before any function-scoped autouse fixture could run).
@pytest.fixture(scope="package", autouse=True)
def _private_id_counters():
    originals = [(mod, name, getattr(mod, name)) for mod, name in _GLOBAL_COUNTERS]
    for mod, name in _GLOBAL_COUNTERS:
        setattr(mod, name, itertools.count(100_000))
    try:
        yield
    finally:
        for mod, name, counter in originals:
            setattr(mod, name, counter)
