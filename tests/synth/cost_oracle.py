"""Reference program cost: the closed form the synthesizer used to score with.

``estimate_program_seconds`` reads a program's IR directly — its pair
traffic, ``num_steps``, protocol and ``wan_step_count`` — and shares only
``bottleneck_seconds`` / ``pipelined_seconds`` with the planner.  The
synthesizer now scores every candidate through
:func:`repro.autotune.cost.estimate_seconds` over the compiled
``SynthAlgorithm``; ``test_cost_oracle.py`` holds that one estimate
``==`` to this one.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cluster.gpu import GpuDevice
from repro.cluster.specs import Cluster
from repro.collectives.cost_model import LatencyModel, MCCS_LATENCY
from repro.collectives.ir import Program


def estimate_program_seconds(
    cluster: Cluster,
    gpus: Sequence[GpuDevice],
    program: Program,
    out_bytes: float,
    *,
    latency: LatencyModel = MCCS_LATENCY,
) -> float:
    """Cost-model completion time of ``program`` on this placement.

    Uses the same primitives as :func:`repro.autotune.cost.estimate_seconds`
    (per-pair traffic -> bottleneck resource -> pipelined closed form,
    plus the WAN RTT term), with the program's own step and chunk counts.
    """
    from repro.autotune.cost import bottleneck_seconds, pipelined_seconds

    traffic = program.pair_traffic(out_bytes)
    bottleneck = bottleneck_seconds(cluster, gpus, traffic, program.channels)
    protocol = program.protocol
    bottleneck /= protocol.bandwidth_efficiency
    per_step = latency.per_step * protocol.latency_factor
    seconds = (
        latency.base
        + latency.datapath
        + pipelined_seconds(bottleneck, program.num_steps, 1, per_step)
    )
    region_of_rank = _region_of_rank(cluster, gpus)
    if region_of_rank is not None:
        wan_rtt = float(getattr(cluster.fabric.spec, "wan_rtt", 0.0))
        seconds += wan_rtt * program.wan_step_count(region_of_rank)
    return seconds


def _region_of_rank(
    cluster: Cluster, gpus: Sequence[GpuDevice]
) -> Optional[Callable[[int], int]]:
    region_of_host = getattr(cluster.fabric.spec, "region_of_host", None)
    if not callable(region_of_host):
        return None
    regions = [region_of_host(gpu.host_id) for gpu in gpus]
    return lambda rank: regions[rank]
