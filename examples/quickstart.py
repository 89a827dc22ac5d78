#!/usr/bin/env python
"""Quickstart: run a managed AllReduce on the simulated testbed.

Walks through the whole MCCS story in one page:

1. build the paper's 4-host testbed (Figure 5a);
2. start the MCCS deployment (one service per host) and the provider's
   centralized manager;
3. as the *tenant*: connect the shim, allocate GPU buffers through the
   service, create a communicator, and issue an AllReduce tied to a
   compute stream;
4. as the *provider*: observe that the ring was locality-optimized and
   flow-assigned without the tenant learning anything about the fabric.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CentralManager, MccsDeployment, testbed_cluster
from repro.netsim.units import MB, to_gBps

def main() -> None:
    # --- provider side ---------------------------------------------------
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    manager.manage_admissions()  # locality rings for every new tenant

    # --- tenant side -----------------------------------------------------
    client = deployment.connect("tenantA")
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]  # one GPU per host
    comm = client.create_communicator(gpus)

    # Allocate device buffers through the service (cudaMalloc redirect).
    nbytes = 4 * MB
    sends = [client.alloc(gpu, nbytes) for gpu in gpus]
    recvs = [client.alloc(gpu, nbytes) for gpu in gpus]
    for rank, buf in enumerate(sends):
        buf.view(np.float32)[:] = rank + 1.0

    # Produce data on a compute stream, then all-reduce in stream order.
    stream = client.create_stream(gpus[0], "tenantA.compute")
    stream.compute(2e-3, name="forward")
    op = client.all_reduce(comm, nbytes, send=sends, recv=recvs, stream=stream)

    # The provider assigns routes across all tenants (only one here).
    manager.apply_flow_policy("ffa")

    deployment.run()

    expected = sum(range(1, len(gpus) + 1))
    assert all(np.allclose(r.view(np.float32), expected) for r in recvs)
    print(f"AllReduce of {nbytes // MB} MiB over {len(gpus)} GPUs")
    print(f"  completed in {op.duration() * 1e3:.2f} ms "
          f"({to_gBps(nbytes / op.duration()):.2f} GB/s algorithm bandwidth)")
    print(f"  results verified: every rank holds {expected:.0f}")

    # Peek at the provider's management view (hidden from the tenant).
    info = deployment.describe()[0]
    print(f"  provider-chosen ring: {info['ring']} "
          f"(channels={info['channels']}, routes={info['routes']})")

    # Every layer reported into the deployment's telemetry hub along the
    # way: counters, span-traced collectives, link-utilization samples.
    print()
    print("telemetry summary")
    for line in deployment.telemetry().summary_lines():
        print(f"  {line}")
    # The same view as one JSON-ready document, the provider's export.
    snapshot = deployment.telemetry().to_json()
    print(f"  json export: {len(snapshot['spans']['records'])} span(s), "
          f"{len(snapshot['events']['records'])} event(s), "
          f"{len(snapshot['links'])} link(s)")

if __name__ == "__main__":
    main()
