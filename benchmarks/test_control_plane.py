"""Control-plane benchmark: FFA passes under tenant churn.

Results are written to ``BENCH_control.json`` at the repo root so CI can
archive the trend and ``benchmarks/compare_bench.py`` can guard it:

* ``ffa_churn``: a fixed join/exit script on the §6.5 768-GPU cluster,
  shaped like the repo benchmark's ``multi_tenant`` wave (random 16- and
  32-GPU placements, locality rings, 8 channels, up to six tenants live),
  with one ``CentralManager.apply_flow_policy("ffa")`` pass after every
  join and every exit and no traffic.  ``passes``, ``demands_placed``
  (route ids assigned, summed over passes), ``reconfigured_comms`` and
  ``assignment_digest`` (every pass's routes, hashed) are exact on any
  host and guarded with ``==``: a change there is a change of policy
  output.  ``passes_per_s`` (wall clock of the passes alone) is recorded
  for the trend and asserted nowhere.
"""

import hashlib
import random
import time
from pathlib import Path

import pytest

from repro.cluster.placement import ClusterAllocator
from repro.cluster.specs import large_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_control.json"
_RESULTS = {"ffa_churn": {}}

JOBS = 24
LIVE = 6
CHANNELS = 8
SEED = 2024


@pytest.fixture(scope="module", autouse=True)
def _write_results(bench_writer):
    yield
    bench_writer(OUT_PATH, _RESULTS)
    print(f"\nwrote {OUT_PATH}")


def churn_script():
    """(job, size) joins; once ``LIVE`` jobs run, each join first retires
    the oldest, and the last ``LIVE`` exit at the end."""
    rng = random.Random(SEED)
    sizes = [16, 32] * (JOBS // 2)
    rng.shuffle(sizes)
    events = []
    for k, size in enumerate(sizes):
        if k >= LIVE:
            events.append(("exit", f"job{k - LIVE}", 0))
        events.append(("join", f"job{k}", size))
    events.extend(("exit", f"job{k}", 0) for k in range(JOBS - LIVE, JOBS))
    return events


def test_ffa_churn():
    cluster = large_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    allocator = ClusterAllocator(cluster, seed=SEED)
    comms = {}
    digest = hashlib.sha256()
    passes = demands = reconfigured = 0
    policy_s = 0.0
    for kind, job, size in churn_script():
        if kind == "join":
            gpus = allocator.place_random(job, size)
            comms[job] = manager.admit(job, gpus, channels=CHANNELS)
        else:
            client = deployment.connect(job)
            client.destroy_communicator(client.adopt_communicator(comms.pop(job).comm_id))
            allocator.release(job)
        started = time.perf_counter()
        report = manager.apply_flow_policy("ffa")
        policy_s += time.perf_counter() - started
        deployment.run()
        passes += 1
        reconfigured += len(report.reconfigured_comms)
        for comm in deployment.communicators():
            routes = comm.strategy.route_ids
            demands += len(routes)
            digest.update(repr((passes, comm.comm_id, routes)).encode())
    assert passes == 2 * JOBS and not deployment.communicators()
    _RESULTS["ffa_churn"]["large_cluster"] = {
        "passes": passes,
        "demands_placed": demands,
        "reconfigured_comms": reconfigured,
        "assignment_digest": int(digest.hexdigest()[:12], 16),
        "passes_per_s": round(passes / policy_s, 1),
    }
