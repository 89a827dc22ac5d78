"""Service-gateway benchmark: request throughput.

Results are written to ``BENCH_gateway.json`` at the repo root so CI can
archive the trend and ``benchmarks/compare_bench.py`` can guard it:

* ``gateway``: wall-clock requests/sec of the full robustness stack
  (auth -> bucket -> queue -> dispatch -> settle) draining a deep
  backlog of real data-carrying collectives.

The gateway sits on every simulated request, so a Python-level slowdown
here multiplies across every fleet experiment.  The multi-tenant fleet
itself is measured by the repo benchmark's ``gateway_fleet`` workload
(``benchmarks/e2e``), not here.
"""

import json
import time
from pathlib import Path

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.service import (
    GatewayClient,
    GatewayPolicy,
    InProcessTransport,
    ServiceGateway,
    TenantQuota,
)

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_gateway.json"
_RESULTS = {"gateway": {}}

BACKLOG = 2000


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    OUT_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUT_PATH}")


def test_gateway_request_throughput():
    deployment = MccsDeployment(testbed_cluster())
    gateway = ServiceGateway(
        deployment, GatewayPolicy(queue_capacity=2 * BACKLOG, max_inflight=64)
    )
    account = gateway.register_tenant(
        "bench",
        TenantQuota(qos_class="high", rate=1e9, burst=float(2 * BACKLOG),
                    max_queued=2 * BACKLOG, max_inflight=64),
    )
    client = GatewayClient(InProcessTransport(gateway), api_key=account.key.raw)
    gpus = [deployment.cluster.hosts[0].gpus[i].global_id for i in (0, 1)]
    comm_call = client.create_comm(gpus)
    deployment.run()
    comm_id = comm_call.response.body["comm_id"]

    started = time.perf_counter()
    calls = [
        client.collective(comm_id, 64 << 10, ttl=30.0) for _ in range(BACKLOG)
    ]
    deployment.run()
    elapsed = time.perf_counter() - started
    assert all(c.ok for c in calls)
    _RESULTS["gateway"]["backlog_drain"] = {
        "requests_per_sec": round(BACKLOG / elapsed),
        "requests": BACKLOG,
        "wall_seconds": round(elapsed, 3),
    }
