"""Synthetic training traces (the profile-trace substitute of §6.1).

The paper drives its QoS evaluation with "a traffic generator with profile
traces" collected from PyTorch/DeepSpeed/Megatron-LM runs of VGG-19 (data
parallel) and a 2.7B GPT (tensor parallel).  Those traces are a sequence
of (compute gap, collective) steps; since the originals are not published,
we synthesize traces with the same structure from the model catalog:

* data parallel: forward compute, then backward compute interleaved with
  one gradient-bucket AllReduce per bucket (DDP overlap);
* tensor parallel: per layer, compute followed by an activation AllReduce
  (four synchronization points per layer per iteration).

A trace is deliberately independent of the cluster: the same trace can be
replayed through NCCL or MCCS at any placement, which is exactly how the
paper's traffic generator works.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..collectives.types import Collective
from .models import ModelProfile, gradient_buckets, gpt_2_7b, vgg19


@dataclass(frozen=True)
class TraceStep:
    """One step: stage ``memcpy_bytes`` host->device, compute for
    ``compute_seconds``, then (optionally) issue a collective of
    ``out_bytes``."""

    compute_seconds: float
    collective: Optional[Collective] = None
    out_bytes: int = 0
    memcpy_bytes: int = 0


@dataclass
class TrainingTrace:
    """A replayable communication trace of one training job."""

    name: str
    steps: List[TraceStep]
    iterations: int
    steps_per_iteration: int


def _jittered(value: float, jitter: float, rng: Optional[random.Random]) -> float:
    if rng is None or jitter <= 0:
        return value
    return max(value * (1.0 + rng.uniform(-jitter, jitter)), 0.0)


def data_parallel_trace(
    profile: ModelProfile,
    iterations: int,
    *,
    forward_fraction: float = 0.35,
    jitter: float = 0.0,
    seed: Optional[int] = None,
) -> TrainingTrace:
    """DDP-style trace: forward, then per-bucket backward+AllReduce.

    The forward pass is one pure-compute step; the backward pass is split
    evenly across gradient buckets, each followed by that bucket's
    AllReduce — giving the overlapped compute/communication pattern DDP
    produces.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    rng = random.Random(seed) if seed is not None else None
    buckets = gradient_buckets(profile)
    forward = profile.compute_per_iteration * forward_fraction
    backward_each = (
        profile.compute_per_iteration * (1.0 - forward_fraction) / len(buckets)
    )
    steps: List[TraceStep] = []
    for _ in range(iterations):
        steps.append(
            TraceStep(
                _jittered(forward, jitter, rng),
                memcpy_bytes=profile.input_bytes_per_iteration,
            )
        )
        for bucket in buckets:
            steps.append(
                TraceStep(
                    _jittered(backward_each, jitter, rng),
                    Collective.ALL_REDUCE,
                    bucket,
                )
            )
    return TrainingTrace(
        name=f"{profile.name}-dp",
        steps=steps,
        iterations=iterations,
        steps_per_iteration=1 + len(buckets),
    )


def tensor_parallel_trace(
    profile: ModelProfile,
    iterations: int,
    *,
    jitter: float = 0.0,
    seed: Optional[int] = None,
) -> TrainingTrace:
    """Megatron-style trace: compute/AllReduce pairs at every sync point."""
    if profile.parallelism != "tensor":
        raise ValueError(f"{profile.name} is not tensor parallel")
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    rng = random.Random(seed) if seed is not None else None
    syncs = profile.tp_syncs_per_iteration
    compute_each = profile.compute_per_iteration / syncs
    steps: List[TraceStep] = []
    for _ in range(iterations):
        for _ in range(syncs):
            steps.append(
                TraceStep(
                    _jittered(compute_each, jitter, rng),
                    Collective.ALL_REDUCE,
                    profile.tp_allreduce_bytes,
                )
            )
    return TrainingTrace(
        name=f"{profile.name}-tp",
        steps=steps,
        iterations=iterations,
        steps_per_iteration=syncs,
    )


def vgg19_dp_trace(iterations: int, **kw) -> TrainingTrace:
    """Tenant A of §6.4: VGG-19 trained from scratch, data parallel."""
    return data_parallel_trace(vgg19(), iterations, **kw)


def gpt_tp_trace(iterations: int, **kw) -> TrainingTrace:
    """Tenants B/C of §6.4: 2.7B GPT fine-tuning, tensor parallel."""
    return tensor_parallel_trace(gpt_2_7b(), iterations, **kw)


def geo_distributed_trace(
    iterations: int,
    *,
    bucket_bytes: int = 4 * 1024**2,
    buckets_per_iteration: int = 4,
    compute_per_iteration: float = 0.02,
    wan_rtt: float = 0.03,
    jitter: float = 0.0,
    seed: Optional[int] = None,
) -> TrainingTrace:
    """Geo-distributed data-parallel training across WAN-joined regions.

    Cross-region DDP hides most of the WAN latency behind backward
    compute, but every gradient bucket still pays at least one WAN
    round-trip of synchronization slack (parameter-server heartbeats,
    straggler waits) that intra-region jobs never see.  The trace models
    that as an extra ``wan_rtt`` of gap on each bucket step, so replaying
    it over a :func:`~repro.netsim.fabric.multi_region` fabric produces
    the long-thin-pipe traffic pattern the elastic experiments stress.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if buckets_per_iteration <= 0:
        raise ValueError("buckets_per_iteration must be positive")
    rng = random.Random(seed) if seed is not None else None
    compute_each = compute_per_iteration / buckets_per_iteration
    steps: List[TraceStep] = []
    for _ in range(iterations):
        for _ in range(buckets_per_iteration):
            steps.append(
                TraceStep(
                    _jittered(compute_each + wan_rtt, jitter, rng),
                    Collective.ALL_REDUCE,
                    bucket_bytes,
                )
            )
    return TrainingTrace(
        name="geo-dp",
        steps=steps,
        iterations=iterations,
        steps_per_iteration=buckets_per_iteration,
    )
