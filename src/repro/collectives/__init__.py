"""Collective algorithms: chunk programs, the executor that runs them,
schedules and costs.

Every algorithm family names a chunk-level program
(:mod:`~repro.collectives.ir`, :mod:`~repro.collectives.generators`) and
one executor (:mod:`~repro.collectives.executor`) moves the real numpy
bytes, in place, so correctness is testable bit-for-bit against
:mod:`~repro.collectives.reference`; the compiled plan also carries the
send table and step count from which :mod:`repro.core.algorithms` derives
the flows the fluid network simulator turns into completion times.
"""

from .bandwidth import algorithm_bandwidth, bus_bandwidth, busbw_factor
from .chunking import chunk_bounds, chunk_for_step, ring_neighbors
from .cost_model import (
    DEFAULT_DATAPATH_LATENCY,
    LatencyModel,
    MCCS_LATENCY,
    NCCL_LATENCY,
    effective_bandwidth,
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
from .halving_doubling import is_power_of_two
from .ir import Instr, OpKind, Program, Protocol, make_program
from .ring import RingSchedule, identity_ring
from .tree import TreeSchedule, binary_tree, double_binary_trees
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
    "double_tree_program",
    "effective_bandwidth",
    "halving_doubling_program",
    "hierarchical_allreduce_program",
    "identity_ring",
    "input_bytes",
    "is_power_of_two",
    "make_program",
    "reduce_many",
    "ring_allreduce_cost",
    "ring_neighbors",
    "ring_program",
    "run_program",
    "select_ring_or_tree",
    "toposort",
    "validate_world",
]
