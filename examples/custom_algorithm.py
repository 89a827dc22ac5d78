#!/usr/bin/env python
"""Provider-proprietary collective algorithms (the §4.2 extension point).

"MCCS enables the incorporation of various collective strategies
optimized for specific topologies ... or even proprietary strategies
developed in-house by the provider" — without changing tenant code.

This example registers a toy proprietary algorithm — a two-level
hierarchical AllReduce (reduce-scatter inside each host over NVLink, ring
all-reduce each shard across the hosts, all-gather inside the host) —
assigns it to a tenant's communicator at admission time, and later
reconfigures the live communicator between algorithm families.  The
tenant's code never changes and never learns which algorithm ran.

Run:  python examples/custom_algorithm.py
"""

from repro import CentralManager, MccsDeployment, RingSchedule, testbed_cluster
from repro.collectives import compile_program, hierarchical_allreduce_program
from repro.collectives.types import Collective
from repro.core.algorithms import (
    CollectiveAlgorithm,
    get_algorithm,
    register_algorithm,
)
from repro.core.strategy import CollectiveStrategy
from repro.netsim.units import MB

class HierarchicalAllReduce(CollectiveAlgorithm):
    """Reduce-scatter intra-host, ring the hosts, all-gather back.

    An algorithm is the name of a chunk program: ``plan`` is all there is
    to write.  The service's one executor moves the bytes with it (in
    place, into the tenant's receive buffers), and the simulator's flows
    and fixed-latency step count are read off the same compiled plan, so
    the two cannot disagree.
    """

    name = "hierarchical"

    def __init__(self):
        self._plans = {}  # (world, channels) -> compiled two-level program

    def plan(self, ctx):
        if ctx.kind is not Collective.ALL_REDUCE:
            return get_algorithm("ring").plan(ctx)
        key = (ctx.world, ctx.channels)
        if key not in self._plans:
            # hosts are rank pairs (0,1), (2,3)...; chunks alternate over
            # the strategy's channels
            hosts = [[r, r + 1] for r in range(0, ctx.world, 2)]
            self._plans[key] = compile_program(
                hierarchical_allreduce_program(hosts, channels=ctx.channels)
            )
        return self._plans[key], None  # already in rank space

def main() -> None:
    register_algorithm(HierarchicalAllReduce(), replace=True)

    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)

    gpus = [g for h in range(4) for g in cluster.hosts[h].gpus]
    strategy = CollectiveStrategy(
        ring=RingSchedule(tuple(range(8))), channels=2, algorithm="hierarchical"
    )
    state = deployment.create_communicator("tenant", gpus, strategy=strategy)
    client = deployment.connect("tenant")
    comm = client.adopt_communicator(state.comm_id)

    def measure(label):
        done = []
        client.all_reduce(comm, 128 * MB, on_complete=lambda i, t: done.append(i.duration()))
        deployment.run()
        print(f"{label:>14}: 128MB AllReduce in {done[0] * 1e3:6.2f} ms "
              f"({128 * MB / done[0] / 1e9:5.2f} GB/s)")

    measure("hierarchical")
    # The provider reconfigures the live communicator to plain rings...
    deployment.reconfigure(state.comm_id, algorithm="ring")
    measure("ring")
    # ...and to double binary trees.
    deployment.reconfigure(state.comm_id, algorithm="tree")
    measure("tree")
    print(f"\nstrategy history: versions {sorted(state.strategy_history)} — "
          "the tenant never noticed.")

if __name__ == "__main__":
    main()
