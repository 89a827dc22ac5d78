"""Profiling harness for the netsim hot path.

Run as a module::

    python -m repro.netsim.profile --flows 10000 --pods 4

Builds a multi-pod Clos fabric, drives a channelized synthetic workload
(waves of byte-identical channel fan-outs per connection) through the
simulator under cProfile, and prints the top-20 functions by
cumulative time plus the engine's perf-counter snapshot — the starting
point for any future hot-path work.

The workload generator (:func:`synthetic_connections`,
:func:`run_scale_workload`) is shared with the scale-curve benchmark in
``benchmarks/test_netsim_core.py`` so profiles and recorded numbers
describe the same traffic.  Paths are synthesized by node-name arithmetic
(no BFS), so building a 100k-flow workload on a 16-pod fabric costs
seconds, not minutes.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
import time
from typing import Iterator, List, Tuple

from .engine import FlowSimulator
from .fabric import MultiPodSpec, multi_pod_clos
from .routing import clos_path

#: Channel fan-out of the synthetic collectives: flows per connection
#: sharing one exact (path, weight, tenant).
DEFAULT_CHANNELS = 8


def scale_spec(pods: int) -> MultiPodSpec:
    """Fabric spec used by the profile harness and the scale benchmark.

    512 GPUs per pod (16 leaves x 4 hosts x 8 NICs): 1 pod = 512 GPUs,
    4 pods = 2048, 16 pods = 8192 — the ROADMAP's datacenter band.
    """
    return MultiPodSpec(
        pods=pods,
        spines_per_pod=4,
        leaves_per_pod=16,
        hosts_per_leaf=4,
        nics_per_host=8,
        core_switches=4,
    )


#: O(1) name-arithmetic path synthesis (moved to :mod:`.routing`, kept
#: here under its historical name for the benchmark/test callers).
connection_path = clos_path


#: Fraction of connections crossing the core tier.  Training jobs are
#: placed pod-local when possible; the occasional cross-pod job is what
#: couples two pods' flows through the core links.
DEFAULT_INTER_POD = 0.02


def synthetic_connections(
    spec: MultiPodSpec,
    rng: random.Random,
    count: int,
    inter_pod_fraction: float = DEFAULT_INTER_POD,
) -> Iterator[Tuple[Tuple[str, ...], str]]:
    """Yield ``(path, job_id)`` connection templates.

    Traffic is mostly pod-local (collectives are placed within a pod when
    possible); ``inter_pod_fraction`` of connections cross the core tier.
    """
    hosts_per_pod = spec.hosts_per_pod
    for i in range(count):
        src_pod = rng.randrange(spec.pods)
        if spec.pods > 1 and rng.random() < inter_pod_fraction:
            dst_pod = (src_pod + 1 + rng.randrange(spec.pods - 1)) % spec.pods
        else:
            dst_pod = src_pod
        src_host = src_pod * hosts_per_pod + rng.randrange(hosts_per_pod)
        dst_host = dst_pod * hosts_per_pod + rng.randrange(hosts_per_pod)
        if dst_host == src_host:
            dst_host = src_pod * hosts_per_pod + (
                (src_host + 1 - src_pod * hosts_per_pod) % hosts_per_pod
            )
        path = connection_path(
            spec,
            src_host,
            rng.randrange(spec.nics_per_host),
            dst_host,
            rng.randrange(spec.nics_per_host),
            spine=rng.randrange(spec.spines_per_pod),
            core=rng.randrange(spec.core_switches),
        )
        yield path, f"job{i % 16}"


def prepare_scale_workload(
    sim: FlowSimulator,
    spec: MultiPodSpec,
    num_flows: int,
    channels: int = DEFAULT_CHANNELS,
    seed: int = 42,
    wave_flows: int = 2000,
    wave_interval: float = 0.05,
    size_base: float = 3e7,
    inter_pod_fraction: float = DEFAULT_INTER_POD,
) -> int:
    """Schedule the channelized wave workload onto ``sim``.

    All workload *generation* (path synthesis, size draws) happens here,
    before the caller starts its clock; the scheduled injectors only call
    ``sim.add_flows``, so a timed ``sim.run()`` measures the event loop,
    not the random-number generator.  Returns the flow count scheduled.

    Flows arrive in waves (one sim timestep per wave, so structural churn
    coalesces into one solve) of ``wave_flows`` flows; each connection
    contributes ``channels`` identical-path flows whose sizes match (one
    of eight chunk sizes per connection), the shape NCCL channel fan-out
    produces.  The default ``size_base`` keeps a wave's drain time in the
    order of ``wave_interval`` so the concurrent population tracks the
    offered load instead of accumulating without bound.
    """
    rng = random.Random(seed)
    num_connections = max(1, num_flows // channels)
    connections = [
        ([(size_base * (1 + rng.randrange(8)), path, None)] * channels, job)
        for path, job in synthetic_connections(
            spec, rng, num_connections, inter_pod_fraction=inter_pod_fraction
        )
    ]
    per_wave = max(1, wave_flows // channels)
    injected = 0
    next_start = sim.now
    add_flows = sim.add_flows
    for wave_start in range(0, num_connections, per_wave):
        wave = connections[wave_start : wave_start + per_wave]
        at = next_start
        next_start += wave_interval

        def inject(wave=wave) -> None:
            for fan_out, job in wave:
                add_flows(fan_out, job_id=job)

        sim.schedule(at, inject)
        injected += len(wave) * channels
    return injected


def run_scale_workload(
    sim: FlowSimulator,
    spec: MultiPodSpec,
    num_flows: int,
    **kwargs,
) -> int:
    """Prepare the scale workload and run it to completion; returns the
    number of completions.  See :func:`prepare_scale_workload`."""
    prepare_scale_workload(sim, spec, num_flows, **kwargs)
    sim.run()
    return sim.flows_completed


def profile_run(
    num_flows: int,
    pods: int,
    channels: int = DEFAULT_CHANNELS,
    top: int = 20,
) -> FlowSimulator:
    spec = scale_spec(pods)
    print(
        f"fabric: {pods} pod(s), {spec.gpus} GPUs, "
        f"{num_flows} flows x fan-out {channels}"
    )
    fabric = multi_pod_clos(spec)
    sim = FlowSimulator(fabric.topology)
    prepare_scale_workload(sim, spec, num_flows, channels=channels)
    profiler = cProfile.Profile()
    wall = time.perf_counter()
    profiler.enable()
    sim.run()
    completed = sim.flows_completed
    profiler.disable()
    wall = time.perf_counter() - wall
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    print(f"completed {completed} flows in {wall:.2f}s wall "
          f"({completed / wall:.0f} events/s)")
    print("perf counters:")
    for name, value in sorted(sim.perf_counters().items()):
        print(f"  {name:32s} {value}")
    return sim


def main(argv: List[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Profile the netsim event loop on a multi-pod fabric."
    )
    parser.add_argument("--flows", type=int, default=10000)
    parser.add_argument("--pods", type=int, default=4)
    parser.add_argument("--channels", type=int, default=DEFAULT_CHANNELS)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    profile_run(args.flows, args.pods, channels=args.channels, top=args.top)


if __name__ == "__main__":
    main()
