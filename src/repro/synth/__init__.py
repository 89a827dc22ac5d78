"""Chunk-level collective IR, validator, compiler and schedule synthesizer.

The paper argues (§3, §5) that a collective *service* can specialize
algorithms per tenant and topology because it owns the whole execution
stack.  Every algorithm in the repo names a SCCL/GC3-style chunk-level
program and one executor runs it; the IR, the generators and that
executor live in :mod:`repro.collectives` (``ir``, ``generators``,
``executor``) so the service's data path never imports this package.
What lives *here* is what turns programs into trusted, searched-for
strategies: a validator proving a program implements its collective kind
(:mod:`~repro.synth.validate`), a lowering pass registering it as a
first-class algorithm (:mod:`~repro.synth.lowering`) and a bounded
topology-aware search (:mod:`~repro.synth.search`) whose pareto front
feeds the autotuner.  The IR's public names are re-exported below.

See ``docs/synthesis.md`` for the IR grammar, validator invariants,
lowering contract and search constants.
"""

from ..collectives.executor import run_program, toposort
from ..collectives.generators import hierarchical_allreduce_program, ring_program
from ..collectives.ir import Instr, OpKind, Program, Protocol, make_program
from .lowering import (
    SYNTH_PREFIX,
    SynthAlgorithm,
    register_program,
    registered_synth_algorithms,
    temporarily_registered,
    unregister_program,
)
from .search import (
    ScoredProgram,
    Synthesizer,
    placement_groups,
    synthesize_and_register,
)
from .validate import is_valid, validate_program

__all__ = [
    "SYNTH_PREFIX",
    "Instr",
    "OpKind",
    "Program",
    "Protocol",
    "ScoredProgram",
    "SynthAlgorithm",
    "Synthesizer",
    "hierarchical_allreduce_program",
    "is_valid",
    "make_program",
    "placement_groups",
    "register_program",
    "registered_synth_algorithms",
    "ring_program",
    "run_program",
    "synthesize_and_register",
    "temporarily_registered",
    "toposort",
    "unregister_program",
    "validate_program",
]
