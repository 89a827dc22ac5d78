"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but quantifications of the knobs behind them:

* **channels** — how many rings/NICs a communicator drives (the paper's
  "number of rings equal to the number of network multi-path choices");
* **control-ring latency** — the only fast-path-adjacent cost of the
  Figure 4 reconfiguration barrier;
* **interference penalty** — the burst-interference extension behind the
  Figure 9/10 QoS magnitudes (0 = the paper's pure fluid §6.5 model);
* **ring vs tree** — the classic latency/bandwidth crossover that static
  library selection (§2.1) exploits.
"""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.collectives.ring import RingSchedule
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.core.strategy import CollectiveStrategy
from repro.experiments.report import format_table
from repro.experiments.setups import single_app_gpus
from repro.netsim.units import KB, MB, format_size


def _mccs_allreduce_time(out_bytes, *, channels=2, algorithm="ring", seed=0):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    manager = CentralManager(deployment)
    gpus = single_app_gpus(cluster, "8gpu")
    order = tuple(range(8))
    state = deployment.create_communicator(
        "A",
        gpus,
        channels=channels,
        strategy=CollectiveStrategy(
            ring=RingSchedule(order), channels=channels, algorithm=algorithm
        ),
    )
    manager.apply_flow_policy("ffa")
    deployment.run()
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    durations = []
    client.all_reduce(comm, out_bytes, on_complete=lambda i, t: durations.append(i.duration()))
    deployment.run()
    return durations[0]


def test_ablation_channels(benchmark, once, capsys):
    """One ring cannot use both vNICs; two rings double the bandwidth."""

    def sweep():
        return {
            channels: 512 * MB / _mccs_allreduce_time(512 * MB, channels=channels) / 1e9
            for channels in (1, 2, 4)
        }

    result = once(benchmark, sweep)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["Channels (rings)", "512MB AllReduce algbw (GB/s)"],
                [(c, f"{bw:.2f}") for c, bw in result.items()],
                title="Ablation — rings per communicator (8-GPU testbed)",
            )
        )
    assert result[2] > result[1] * 1.8  # second NIC unlocked
    assert result[4] == pytest.approx(result[2], rel=0.05)  # no third NIC


def test_ablation_control_ring_latency(benchmark, once, capsys, monkeypatch):
    """Reconfiguration stall grows with the control AllGather latency,
    and the fast path (no reconfig) is unaffected."""

    def measure(control_latency):
        # A constant in the product (one value in use): the sweep patches it.
        monkeypatch.setattr(
            "repro.core.reconfig.DEFAULT_CONTROL_RING_LATENCY", control_latency
        )
        cluster = testbed_cluster()
        deployment = MccsDeployment(cluster)
        gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
        comm = deployment.create_communicator("A", gpus)
        client = deployment.connect("A")
        handle = client.adopt_communicator(comm.comm_id)
        baseline_op = client.all_reduce(handle, 8 * MB)
        deployment.run()
        deployment.reconfigure(comm.comm_id, ring=[3, 2, 1, 0])
        # let the request reach the proxies, then issue while they hold
        deployment.run(until=cluster.sim.now)
        op = client.all_reduce(handle, 8 * MB)
        deployment.run()
        return baseline_op.duration(), op.duration()

    def sweep():
        return {lat: measure(lat) for lat in (50e-6, 200e-6, 1e-3, 5e-3)}

    result = once(benchmark, sweep)
    rows = [
        (f"{lat * 1e6:.0f}us", f"{base * 1e3:.3f}ms", f"{dur * 1e3:.3f}ms")
        for lat, (base, dur) in result.items()
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["Control latency", "No reconfig", "Across a reconfig"],
                rows,
                title="Ablation — Figure 4 barrier cost (8MB AllReduce)",
            )
        )
    for lat, (base, dur) in result.items():
        assert dur <= base + lat + 1e-4
        assert dur >= base  # the stall is real but bounded
    bases = {round(b, 9) for b, _ in result.values()}
    assert len(bases) == 1  # fast path independent of control latency


def test_ablation_interference_penalty(benchmark, once, capsys):
    """PFA-vs-FFA for tenant A flips sign as interference grows: in a
    pure fluid world (penalty 0) isolation cannot beat sharing."""
    from repro.experiments.fig09_qos import _run_once

    iters = {"A": 8, "B": 6, "C": 6}

    def sweep():
        out = {}
        for penalty in (0.0, 0.15, 0.30):
            ffa = _run_once("ffa", 0, iterations=iters, penalty=penalty)
            pfa = _run_once("pfa", 0, iterations=iters, penalty=penalty)
            out[penalty] = pfa["A"] / ffa["A"]
        return out

    result = once(benchmark, sweep)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["Interference penalty", "PFA/FFA JCT ratio for A"],
                [(p, f"{r:.3f}") for p, r in result.items()],
                title="Ablation — burst interference behind the Figure 9 PFA gain",
            )
        )
    assert result[0.0] >= 1.0  # fluid-only: PFA cannot win
    assert result[0.30] < result[0.0]  # interference is what PFA removes
    assert result[0.30] < 1.0


def test_ablation_ring_vs_tree(benchmark, once, capsys):
    """Trees win small latency-bound sizes; rings win bandwidth."""

    def sweep():
        out = {}
        for size in (32 * KB, 512 * KB, 32 * MB, 512 * MB):
            ring = _mccs_allreduce_time(size, algorithm="ring")
            tree = _mccs_allreduce_time(size, algorithm="tree")
            out[size] = (size / ring / 1e9, size / tree / 1e9)
        return out

    result = once(benchmark, sweep)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["Size", "Ring (GB/s)", "Tree (GB/s)"],
                [
                    (format_size(s), f"{r:.2f}", f"{t:.2f}")
                    for s, (r, t) in result.items()
                ],
                title="Ablation — ring vs double binary tree (8-GPU MCCS)",
            )
        )
    small_ring, small_tree = result[32 * KB]
    big_ring, big_tree = result[512 * MB]
    assert small_tree > small_ring  # fewer latency hops
    assert big_ring > big_tree  # 2(n-1)/n*S vs ~4S per interior NIC
