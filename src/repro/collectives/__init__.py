"""Collective algorithms: chunk programs, the executor that runs them,
schedules, traffic models and costs.

Every algorithm family names a chunk-level program
(:mod:`~repro.collectives.ir`, :mod:`~repro.collectives.generators`) and
one executor (:mod:`~repro.collectives.executor`) moves the real numpy
bytes, in place, so correctness is testable bit-for-bit against
:mod:`~repro.collectives.reference`; the traffic models predict per-edge
byte counts that the fluid network simulator turns into completion
times.
"""

from .bandwidth import algorithm_bandwidth, bus_bandwidth, busbw_factor
from .chunking import chunk_bounds, chunk_for_step, ring_neighbors
from .cost_model import (
    DEFAULT_DATAPATH_LATENCY,
    LatencyModel,
    MCCS_LATENCY,
    NCCL_LATENCY,
    effective_bandwidth,
    mccs_latency,
    ring_allreduce_cost,
    select_ring_or_tree,
    tree_allreduce_cost,
)
from .executor import (
    ExecutionPlan,
    builtin_plan,
    compile_program,
    run_program,
    toposort,
)
from .generators import (
    double_tree_program,
    halving_doubling_program,
    hierarchical_allreduce_program,
    ring_program,
)
from .halving_doubling import (
    halving_doubling_traffic,
    hd_steps,
    is_power_of_two,
)
from .ir import Instr, OpKind, Program, Protocol, make_program
from .ring import RingSchedule, edge_traffic, identity_ring, steps_for
from .tree import (
    TreeSchedule,
    binary_tree,
    double_binary_trees,
    double_tree_allreduce_traffic,
    tree_allreduce_traffic,
    tree_steps,
)
from .types import Collective, ReduceOp, input_bytes, reduce_many, validate_world

__all__ = [
    "Collective",
    "DEFAULT_DATAPATH_LATENCY",
    "ExecutionPlan",
    "Instr",
    "LatencyModel",
    "MCCS_LATENCY",
    "NCCL_LATENCY",
    "OpKind",
    "Program",
    "Protocol",
    "ReduceOp",
    "RingSchedule",
    "TreeSchedule",
    "algorithm_bandwidth",
    "binary_tree",
    "builtin_plan",
    "bus_bandwidth",
    "busbw_factor",
    "chunk_bounds",
    "chunk_for_step",
    "compile_program",
    "double_binary_trees",
    "double_tree_allreduce_traffic",
    "double_tree_program",
    "edge_traffic",
    "effective_bandwidth",
    "halving_doubling_traffic",
    "halving_doubling_program",
    "hd_steps",
    "hierarchical_allreduce_program",
    "identity_ring",
    "input_bytes",
    "is_power_of_two",
    "make_program",
    "mccs_latency",
    "reduce_many",
    "ring_allreduce_cost",
    "ring_neighbors",
    "ring_program",
    "run_program",
    "select_ring_or_tree",
    "steps_for",
    "toposort",
    "tree_allreduce_traffic",
    "tree_steps",
    "validate_world",
]
