"""Reference program cost: the closed form read straight off the IR.

``estimate_program_seconds`` reads a program's IR directly — its pair
traffic, ``num_steps`` and ``channels`` — and shares only
``bottleneck_seconds`` with the planner.  The synthesizer scores every
candidate through :func:`repro.autotune.cost.estimate_seconds` over the
compiled ``SynthAlgorithm``; ``test_cost_oracle.py`` holds that one
estimate ``==`` to this one.
"""

from __future__ import annotations

from typing import Sequence

from repro.autotune.cost import bottleneck_seconds
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
    """Cost-model completion time of ``program`` on this placement: the
    fixed latency of its steps plus its busiest resource's serial time."""
    traffic = program.pair_traffic(out_bytes)
    return latency.collective_latency(program.num_steps) + bottleneck_seconds(
        cluster, gpus, traffic, program.channels
    )
