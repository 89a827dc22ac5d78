"""IR data model: shapes, traffic views, protocols."""

import pytest

from repro.collectives.types import Collective
from repro.synth import Instr, OpKind, make_program, ring_program
from repro.collectives.ir import chunk_spans


def test_num_steps_and_channel_inference():
    program = make_program(
        "synth:t", Collective.ALL_REDUCE,
        [
            [Instr(OpKind.SEND, 0, peer=1, channel=2, step=3)],
            [Instr(OpKind.RECV_REDUCE, 0, peer=0, channel=2, step=3)],
        ],
        num_chunks=1,
    )
    assert program.num_steps == 4
    assert program.channels == 3  # max used channel + 1


def test_total_bytes_follows_output_buffer_convention():
    ar = ring_program(Collective.ALL_REDUCE, 4)
    rs = ring_program(Collective.REDUCE_SCATTER, 4)
    assert sum(ar.chunk_nbytes(1000)) == 1000
    assert sum(rs.chunk_nbytes(1000)) == 4000  # per-rank input is world * out


def test_chunk_spans_align_with_rank_blocks():
    # 10 elements, 4 ranks, 8 chunks: chunk boundaries must not straddle
    # the rank blocks (3, 3, 2, 2)
    spans = chunk_spans(Collective.REDUCE_SCATTER, 10, 8, 4)
    assert len(spans) == 8
    blocks = [(0, 3), (3, 6), (6, 8), (8, 10)]
    for i, (lo, hi) in enumerate(spans):
        block_lo, block_hi = blocks[i // 2]
        assert block_lo <= lo <= hi <= block_hi
    # flat kinds split evenly
    flat = chunk_spans(Collective.ALL_REDUCE, 10, 4, 4)
    assert flat == [(0, 3), (3, 6), (6, 8), (8, 10)]


def test_pair_traffic_matches_ring_model():
    from tests.collectives.oracles import edge_traffic

    world, out = 4, 4096
    program = ring_program(Collective.ALL_REDUCE, world)
    traffic = program.pair_traffic(out)
    per_edge = edge_traffic(Collective.ALL_REDUCE, out, world, 0)
    for p in range(world):
        assert traffic[(p, (p + 1) % world)] == pytest.approx(per_edge[p])


def test_rank_transfer_bytes_aggregates_per_peer_and_channel():
    # the aggregation lives on the compiled plan now: its send table has
    # one entry per (peer, channel), holding the chunks sent there
    from repro.collectives import compile_program
    from tests.collectives.oracles import rank_transfer_bytes

    program = ring_program(Collective.ALL_REDUCE, 4, channels=2)
    table = compile_program(program).sends[0]
    assert [(dst, channel) for dst, channel, _ in table] == [(1, 0), (1, 1)]
    sizes = program.chunk_nbytes(4096)
    by_edge = {
        (dst, channel): sum(sizes[c] for c in chunks) for dst, channel, chunks in table
    }
    assert by_edge == rank_transfer_bytes(program, 0, 4096)
    assert sum(by_edge.values()) == pytest.approx(2 * 3 / 4 * 4096)
