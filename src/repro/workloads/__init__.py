"""Workload synthesis: model profiles, traces, generators, arrivals."""

from .arrivals import DiurnalProfile, JobSpec, poisson_arrivals
from .generator import (
    CollectiveIssuer,
    GeneratorStats,
    MccsIssuer,
    NcclIssuer,
    TrafficGenerator,
)
from .models import ModelProfile, gpt_2_7b, gradient_buckets, resnet50, vgg19
from .production import (
    TrainingBreakdown,
    empirical_cross_rack_curve,
    product_group_breakdowns,
    simulated_cross_rack_curve,
)
from .traces import (
    TraceStep,
    TrainingTrace,
    data_parallel_trace,
    geo_distributed_trace,
    gpt_tp_trace,
    tensor_parallel_trace,
    vgg19_dp_trace,
)

__all__ = [
    "CollectiveIssuer",
    "DiurnalProfile",
    "GeneratorStats",
    "JobSpec",
    "MccsIssuer",
    "ModelProfile",
    "NcclIssuer",
    "TraceStep",
    "TrafficGenerator",
    "TrainingBreakdown",
    "TrainingTrace",
    "data_parallel_trace",
    "geo_distributed_trace",
    "empirical_cross_rack_curve",
    "gpt_2_7b",
    "gpt_tp_trace",
    "gradient_buckets",
    "poisson_arrivals",
    "product_group_breakdowns",
    "resnet50",
    "simulated_cross_rack_curve",
    "tensor_parallel_trace",
    "vgg19",
    "vgg19_dp_trace",
]
