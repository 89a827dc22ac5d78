"""Validator: typed rejection of malformed programs, acceptance of good ones."""

import pytest

from repro.collectives.types import Collective
from repro.errors import (
    DeadlockError,
    MalformedProgramError,
    MissingChunkError,
    PostconditionError,
    ProgramValidationError,
    SynthesisError,
    UnmatchedTransferError,
)
from repro.synth import (
    Instr,
    OpKind,
    hierarchical_allreduce_program,
    make_program,
    ring_program,
    validate_program,
)


def test_error_hierarchy_is_catchable_at_every_level():
    for err in (
        MalformedProgramError,
        UnmatchedTransferError,
        MissingChunkError,
        DeadlockError,
        PostconditionError,
    ):
        assert issubclass(err, ProgramValidationError)
        assert issubclass(err, SynthesisError)


def test_generated_programs_validate():
    for kind in Collective:
        for world in (2, 3, 5, 8):
            validate_program(ring_program(kind, world, root=world - 1))
    validate_program(hierarchical_allreduce_program([[0, 1, 2], [3, 4, 5]]))


def test_rejects_unmatched_send():
    program = make_program(
        "bad:unmatched", Collective.BROADCAST,
        [[Instr(OpKind.SEND, 0, peer=1)], []],
        num_chunks=1,
    )
    with pytest.raises(UnmatchedTransferError, match="no matching receive"):
        validate_program(program)


def test_rejects_unmatched_receive():
    program = make_program(
        "bad:orphan-recv", Collective.ALL_REDUCE,
        [[], [Instr(OpKind.RECV_REDUCE, 0, peer=0)]],
        num_chunks=1,
    )
    with pytest.raises(UnmatchedTransferError, match="no matching send"):
        validate_program(program)


def test_rejects_deadlock_cycle():
    # both ranks block on a receive before their own send can run
    program = make_program(
        "bad:deadlock", Collective.ALL_REDUCE,
        [
            [Instr(OpKind.RECV_REDUCE, 0, peer=1), Instr(OpKind.SEND, 0, peer=1)],
            [Instr(OpKind.RECV_REDUCE, 0, peer=0), Instr(OpKind.SEND, 0, peer=0)],
        ],
        num_chunks=1,
    )
    with pytest.raises(DeadlockError, match="dependency cycle"):
        validate_program(program)


def test_rejects_chunk_used_before_it_arrives():
    # root=0 broadcast, but rank 1 sends before it ever receives
    program = make_program(
        "bad:missing", Collective.BROADCAST,
        [
            [Instr(OpKind.RECV, 0, peer=1)],
            [Instr(OpKind.SEND, 0, peer=0)],
        ],
        num_chunks=1,
    )
    with pytest.raises(MissingChunkError, match="does not hold"):
        validate_program(program)


def test_rejects_double_counted_contribution():
    program = make_program(
        "bad:double", Collective.ALL_REDUCE,
        [
            [
                Instr(OpKind.SEND, 0, peer=1, step=0),
                Instr(OpKind.SEND, 0, peer=1, step=1),
            ],
            [
                Instr(OpKind.RECV_REDUCE, 0, peer=0, step=0),
                Instr(OpKind.RECV_REDUCE, 0, peer=0, step=1),
            ],
        ],
        num_chunks=1,
    )
    with pytest.raises(MissingChunkError, match="folded in twice"):
        validate_program(program)


def test_rejects_wrong_postcondition():
    # broadcast that never reaches rank 2
    program = make_program(
        "bad:post", Collective.BROADCAST,
        [
            [Instr(OpKind.SEND, 0, peer=1)],
            [Instr(OpKind.RECV, 0, peer=0)],
            [],
        ],
        num_chunks=1,
    )
    with pytest.raises(PostconditionError, match="rank 2 ends without"):
        validate_program(program)


def test_rejects_incomplete_reduction():
    # "all-reduce" that only swaps values: contributor sets stay partial
    program = make_program(
        "bad:partial", Collective.ALL_REDUCE,
        [
            [Instr(OpKind.SEND, 0, peer=1), Instr(OpKind.RECV, 0, peer=1)],
            [Instr(OpKind.SEND, 0, peer=0), Instr(OpKind.RECV, 0, peer=0)],
        ],
        num_chunks=1,
    )
    with pytest.raises(PostconditionError, match="contributors"):
        validate_program(program)


@pytest.mark.parametrize(
    "instr, match",
    [
        (Instr(OpKind.SEND, 9, peer=1), "chunk 9 out of range"),
        (Instr(OpKind.SEND, 0, peer=7), "peer 7 out of range"),
        (Instr(OpKind.SEND, 0, peer=0), "self-transfer"),
        (Instr(OpKind.SEND, 0, peer=1, channel=5), "channel 5 out of range"),
        (Instr(OpKind.COPY, 0, src_chunk=9), "src_chunk 9 out of range"),
        (Instr(OpKind.COPY, 0, peer=1, src_chunk=0), "must not name a peer"),
    ],
)
def test_rejects_structural_violations(instr, match):
    program = make_program(
        "bad:structure", Collective.ALL_REDUCE,
        [[instr], []],
        num_chunks=2,
        channels=1,
    )
    with pytest.raises(MalformedProgramError, match=match):
        validate_program(program)


def test_rejects_decreasing_steps():
    program = make_program(
        "bad:steps", Collective.ALL_REDUCE,
        [
            [
                Instr(OpKind.SEND, 0, peer=1, step=1),
                Instr(OpKind.SEND, 1, peer=1, step=0),
            ],
            [
                Instr(OpKind.RECV_REDUCE, 0, peer=0, step=1),
                Instr(OpKind.RECV_REDUCE, 1, peer=0, step=0),
            ],
        ],
        num_chunks=2,
    )
    with pytest.raises(MalformedProgramError, match="decreases"):
        validate_program(program)


def test_rejects_blocked_kind_with_unaligned_chunks():
    program = make_program(
        "bad:blocks", Collective.ALL_GATHER,
        [[], [], []],
        num_chunks=4,  # not divisible by world=3
    )
    with pytest.raises(MalformedProgramError, match="divisible by world"):
        validate_program(program)


def test_validation_errors_name_the_program():
    program = make_program(
        "bad:named-prog", Collective.BROADCAST,
        [[Instr(OpKind.SEND, 0, peer=1)], []],
        num_chunks=1,
    )
    with pytest.raises(ProgramValidationError, match="bad:named-prog"):
        validate_program(program)
