"""Lowering: compile a validated IR program onto the flow data plane.

:class:`SynthAlgorithm` wraps a :class:`~repro.synth.ir.Program` in the
:class:`repro.core.algorithms.CollectiveAlgorithm` interface, which is
all the service needs to treat a synthesized schedule as a first-class
strategy:

* ``plan`` — the one method an algorithm writes — names the program
  compiled by the one executor (:mod:`repro.collectives.executor`)
  when the algorithm is built, off the validator's schedule;
* the inherited views do the rest: ``run_data`` moves the bytes, so
  consistency checks and the shared reference suite apply unmodified;
  ``rank_transfers`` reads the plan's send table as tagged — one flow
  per (peer, IR channel), the same one-aggregate-flow-per-edge shape the
  built-ins produce — so the communicator's ``FlowProgramCache`` and the
  netsim engine run synthesized schedules through exactly the same path
  as rings and trees; ``steps`` reports
  the program's pipeline step count to the fixed latency model.

A synthesized program targets one (kind, world) point and is built
against a concrete rank->location mapping, so it deliberately ignores
the strategy's ring order (synth candidates always ship the identity
ring).  Collective kinds, world sizes or roots the program does not
cover fall back to the ring algorithm — stated once, in ``plan``, so
flows and step latency fall back together — mirroring how the built-in
tree and halving-doubling algorithms degrade.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from ..collectives.executor import compile_schedule
from ..collectives.ir import Program
from ..collectives.types import Collective
from ..core.algorithms import (
    AlgorithmContext,
    CollectiveAlgorithm,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
    unregister_algorithm,
)
from .validate import validated_schedule

#: Registry-name prefix marking synthesized algorithms.
SYNTH_PREFIX = "synth:"


class SynthAlgorithm(CollectiveAlgorithm):
    """A validated chunk-level program as a pluggable algorithm.

    Construction validates and compiles off one dependency-order pass,
    so a program that fails validation never becomes an algorithm and
    the object the synthesizer scores is the one it registers, plan
    included.

    Attributes:
        program: The underlying IR program.
        fingerprint: Topology fingerprint the program was synthesized
            for, or ``None``.  The planner only offers the algorithm as
            a candidate on an exactly matching fingerprint, so programs
            registered by one tenant (or one test) never leak into
            plans for other topologies.
        protocol: The program's NCCL-style protocol, charged by the
            cost model.
    """

    def __init__(self, program: Program, *, fingerprint: Optional[str] = None) -> None:
        self._plan = compile_schedule(program, *validated_schedule(program))
        self.program = program
        self.name = program.name
        self.fingerprint = fingerprint
        self.protocol = program.protocol

    # -- applicability ----------------------------------------------------
    def supports(self, kind: Collective, world: int) -> bool:
        """Whether the program itself covers this (kind, world) point."""
        return kind is self.program.kind and world == self.program.world

    def _applies(self, ctx: AlgorithmContext) -> bool:
        if not self.supports(ctx.kind, ctx.world):
            return False
        rooted = ctx.kind in (Collective.BROADCAST, Collective.REDUCE)
        return not rooted or ctx.root == self.program.root

    # -- CollectiveAlgorithm ----------------------------------------------
    def plan(self, ctx: AlgorithmContext):
        if not self._applies(ctx):
            return get_algorithm("ring").plan(ctx)
        return self._plan, None  # already in rank space

    def __repr__(self) -> str:
        p = self.program
        return (
            f"SynthAlgorithm({p.name!r}, kind={p.kind}, world={p.world}, "
            f"chunks={p.num_chunks}, steps={p.num_steps}, "
            f"protocol={p.protocol.value}, fingerprint={self.fingerprint!r})"
        )


def register_program(
    program: Program, *, fingerprint: Optional[str] = None
) -> SynthAlgorithm:
    """Validate, wrap and register ``program``; returns the algorithm."""
    algorithm = SynthAlgorithm(program, fingerprint=fingerprint)
    register_algorithm(algorithm)
    return algorithm


def unregister_program(name: str) -> None:
    """Remove a previously registered synthesized program."""
    unregister_algorithm(name)


def registered_synth_algorithms() -> List[str]:
    """Names of currently registered synthesized programs."""
    return [n for n in registered_algorithms() if n.startswith(SYNTH_PREFIX)]


@contextlib.contextmanager
def temporarily_registered(
    *programs: Program,
    fingerprint: Optional[str] = None,
) -> Iterator[List[SynthAlgorithm]]:
    """Register programs for the duration of a ``with`` block.

    Guarantees the global registry is restored on exit, which keeps
    test-suite and notebook experimentation from leaking synthesized
    candidates into unrelated planner runs.
    """
    registered: List[SynthAlgorithm] = []
    try:
        for program in programs:
            registered.append(
                register_program(program, fingerprint=fingerprint)
            )
        yield registered
    finally:
        for algorithm in registered:
            try:
                unregister_algorithm(algorithm.name)
            except Exception:
                pass
