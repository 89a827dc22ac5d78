"""Validator for chunk-level collective programs.

A program is accepted only if it is *provably* a correct implementation
of its collective kind:

1. **Structure** — ranks, chunks, channels and op shapes are in range,
   step tags are non-decreasing within each rank
   (:class:`~repro.errors.MalformedProgramError`).
2. **Matching** — every ``SEND`` has exactly one matching
   ``RECV``/``RECV_REDUCE`` on its peer at the same
   (chunk, channel, step) coordinates, and vice versa
   (:class:`~repro.errors.UnmatchedTransferError`).
3. **Liveness** — the dependency graph (program order within each rank,
   plus one edge from every send to its matching receive) is acyclic
   (:class:`~repro.errors.DeadlockError`).
4. **Dataflow** — executing instructions in dependency order, no rank
   ever sends or copies a chunk slot it does not hold, and a
   ``RECV_REDUCE`` only folds together values of the same origin chunk
   with disjoint contributor sets
   (:class:`~repro.errors.MissingChunkError`).
5. **Postcondition** — the final chunk placement matches the collective
   kind's specification: e.g. after ``ALL_REDUCE`` every rank holds every
   chunk with *all* ranks' contributions folded in exactly once
   (:class:`~repro.errors.PostconditionError`).

Checks 2 and 3 are :func:`repro.collectives.executor.schedule` — the
executor's own compile step — so the validator and the data plane can
never disagree on what matches what or in which order things run.

Together 4 + 5 imply byte-exactness for any associative/commutative
reduction: the abstract state tracks exactly which input fragments are
summed into each slot, so a program that validates computes the same
bytes as the numpy reference.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..netsim.errors import (
    MalformedProgramError,
    MissingChunkError,
    PostconditionError,
)
from ..collectives.executor import NodeId, schedule
from ..collectives.ir import (
    ChunkValue,
    OpKind,
    Program,
    blocked_kinds,
    initial_state,
    required_state,
)


def _at(program: Program, rank: int, idx: int) -> str:
    """Where an instruction sits, for an error message.  Formatted on
    failure only: per instruction it would cost more than the checks."""
    return f"{program.name}: rank {rank} instr {idx} ({program.rank_programs[rank][idx].kind})"


def _structural_check(program: Program) -> None:
    name = program.name
    if program.world < 2:
        raise MalformedProgramError(
            f"{name}: world must be >= 2, got {program.world}"
        )
    if len(program.rank_programs) != program.world:
        raise MalformedProgramError(
            f"{name}: {len(program.rank_programs)} rank programs "
            f"for world {program.world}"
        )
    if program.num_chunks < 1:
        raise MalformedProgramError(
            f"{name}: num_chunks must be >= 1, got {program.num_chunks}"
        )
    if program.channels < 1:
        raise MalformedProgramError(
            f"{name}: channels must be >= 1, got {program.channels}"
        )
    if not 0 <= program.root < program.world:
        raise MalformedProgramError(
            f"{name}: root {program.root} out of range for world "
            f"{program.world}"
        )
    if program.kind in blocked_kinds() and program.num_chunks % program.world:
        raise MalformedProgramError(
            f"{name}: {program.kind} needs num_chunks divisible by world "
            f"({program.num_chunks} % {program.world} != 0)"
        )
    for rank, instrs in enumerate(program.rank_programs):
        last_step = -1
        for idx, instr in enumerate(instrs):
            if not 0 <= instr.chunk < program.num_chunks:
                raise MalformedProgramError(
                    f"{_at(program, rank, idx)}: chunk {instr.chunk} out of range"
                )
            if instr.step < last_step:
                raise MalformedProgramError(
                    f"{_at(program, rank, idx)}: step {instr.step} decreases "
                    f"(previous {last_step})"
                )
            last_step = instr.step
            if instr.kind is OpKind.COPY:
                if instr.peer != -1:
                    raise MalformedProgramError(
                        f"{_at(program, rank, idx)}: copy must not name a peer"
                    )
                if not 0 <= instr.src_chunk < program.num_chunks:
                    raise MalformedProgramError(
                        f"{_at(program, rank, idx)}: src_chunk {instr.src_chunk} out of range"
                    )
            else:
                if not 0 <= instr.peer < program.world:
                    raise MalformedProgramError(
                        f"{_at(program, rank, idx)}: peer {instr.peer} out of range"
                    )
                if instr.peer == rank:
                    raise MalformedProgramError(f"{_at(program, rank, idx)}: self-transfer")
                if not 0 <= instr.channel < program.channels:
                    raise MalformedProgramError(
                        f"{_at(program, rank, idx)}: channel {instr.channel} out of range "
                        f"(program has {program.channels})"
                    )
                if instr.src_chunk != -1:
                    raise MalformedProgramError(
                        f"{_at(program, rank, idx)}: src_chunk only applies to copy"
                    )


def _execute_abstract(
    program: Program, order: List[NodeId], recv_source: Dict[NodeId, NodeId]
) -> List[Dict[int, ChunkValue]]:
    """Run the program over the abstract chunk-provenance state."""
    state = initial_state(
        program.kind, program.world, program.num_chunks, program.root
    )
    # Value carried by each in-flight send, consumed by its receive.
    in_flight: Dict[NodeId, ChunkValue] = {}

    for node in order:
        rank, idx = node
        instr = program.rank_programs[rank][idx]
        if instr.kind is OpKind.SEND:
            if instr.chunk not in state[rank]:
                raise MissingChunkError(
                    f"{_at(program, rank, idx)}: sends chunk {instr.chunk} it does not hold"
                )
            in_flight[node] = state[rank][instr.chunk]
        elif instr.kind is OpKind.COPY:
            if instr.src_chunk not in state[rank]:
                raise MissingChunkError(
                    f"{_at(program, rank, idx)}: copies from chunk {instr.src_chunk} "
                    f"it does not hold"
                )
            state[rank][instr.chunk] = state[rank][instr.src_chunk]
        elif instr.kind is OpKind.RECV:
            state[rank][instr.chunk] = in_flight[recv_source[node]]
        elif instr.kind is OpKind.RECV_REDUCE:
            incoming = in_flight[recv_source[node]]
            if instr.chunk not in state[rank]:
                raise MissingChunkError(
                    f"{_at(program, rank, idx)}: reduces into chunk {instr.chunk} "
                    f"it does not hold"
                )
            local = state[rank][instr.chunk]
            if local[0] != incoming[0]:
                raise MissingChunkError(
                    f"{_at(program, rank, idx)}: reduces origin chunk {incoming[0]} into a "
                    f"slot holding origin chunk {local[0]}"
                )
            overlap = local[1] & incoming[1]
            if overlap:
                raise MissingChunkError(
                    f"{_at(program, rank, idx)}: contributions of ranks "
                    f"{sorted(overlap)} would be folded in twice"
                )
            state[rank][instr.chunk] = (local[0], local[1] | incoming[1])
    return state


def validate_program(program: Program) -> Program:
    """Fully validate ``program``; return it unchanged for chaining.

    Raises a :class:`~repro.errors.ProgramValidationError` subclass
    naming the violated invariant otherwise.
    """
    validated_schedule(program)
    return program


def validated_schedule(
    program: Program,
) -> Tuple[List[NodeId], Dict[NodeId, NodeId]]:
    """Validate ``program`` and return the :func:`schedule` that proved
    it, ready for :func:`~repro.collectives.executor.compile_schedule`."""
    _structural_check(program)
    # Matching + deadlock checks are the executor's own compile step.
    order, recv_source = schedule(program)
    final = _execute_abstract(program, order, recv_source)
    required = required_state(
        program.kind, program.world, program.num_chunks, program.root
    )
    for rank in range(program.world):
        for chunk, want in required[rank].items():
            got = final[rank].get(chunk)
            if got is None:
                raise PostconditionError(
                    f"{program.name}: rank {rank} ends without chunk "
                    f"{chunk} ({program.kind} requires it)"
                )
            if got != want:
                raise PostconditionError(
                    f"{program.name}: rank {rank} chunk {chunk} ends as "
                    f"(origin={got[0]}, contributors={sorted(got[1])}), "
                    f"{program.kind} requires "
                    f"(origin={want[0]}, contributors={sorted(want[1])})"
                )
    return order, recv_source
