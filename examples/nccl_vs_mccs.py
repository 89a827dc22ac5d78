#!/usr/bin/env python
"""Head-to-head: a tenant-side NCCL ring vs the managed MCCS service.

Sweeps AllReduce sizes on the 8-GPU testbed setup and prints algorithm
bandwidth for:

* NCCL with the rank order a topology-blind tenant would use;
* NCCL(OR) — NCCL fed the optimal ring by an oracle;
* MCCS — locality ring + fair flow assignment, no tenant involvement.

This is a miniature of Figure 6; the full sweep, with the figure's
claims checked, is ``python -m repro.experiments fig06``.

Run:  python examples/nccl_vs_mccs.py
"""

from repro import CentralManager, MccsDeployment, NcclCommunicator, testbed_cluster
from repro.core.policies import locality_ring_order
from repro.experiments.setups import naive_tenant_order, single_app_gpus
from repro.netsim.units import KB, MB, format_size

SIZES = [512 * KB, 8 * MB, 128 * MB, 512 * MB]

def measure_nccl(optimal: bool, size: int, seed: int) -> float:
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, "8gpu")
    order = (
        locality_ring_order(cluster, gpus)
        if optimal
        else naive_tenant_order(cluster, gpus)
    )
    comm = NcclCommunicator(cluster, gpus, ring_order=order, ecmp_seed=seed)
    done = []
    comm.all_reduce(size, on_complete=lambda op, now: done.append(op.duration()))
    cluster.sim.run()
    return size / done[0] / 1e9

def measure_mccs(size: int, seed: int) -> float:
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    manager = CentralManager(deployment)
    gpus = single_app_gpus(cluster, "8gpu")
    state = manager.admit("tenant", gpus)
    manager.apply_flow_policy("ffa")
    deployment.run()
    client = deployment.connect("tenant")
    comm = client.adopt_communicator(state.comm_id)
    done = []
    client.all_reduce(comm, size, on_complete=lambda inst, now: done.append(inst.duration()))
    deployment.run()
    return size / done[0] / 1e9

def main() -> None:
    trials = 5
    print(f"{'size':>7}  {'NCCL':>7}  {'NCCL(OR)':>9}  {'MCCS':>7}   (GB/s)")
    for size in SIZES:
        nccl = sum(measure_nccl(False, size, s) for s in range(trials)) / trials
        nccl_or = sum(measure_nccl(True, size, s) for s in range(trials)) / trials
        mccs = sum(measure_mccs(size, s) for s in range(trials)) / trials
        print(
            f"{format_size(size):>7}  {nccl:>7.2f}  {nccl_or:>9.2f}  {mccs:>7.2f}"
            f"   MCCS/NCCL = {mccs / nccl:.2f}x"
        )

if __name__ == "__main__":
    main()
