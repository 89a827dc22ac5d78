"""IR data model: shapes, serialization, traffic views, protocols."""

import json

import pytest

from repro.collectives.types import Collective
from repro.errors import MalformedProgramError
from repro.synth import Instr, OpKind, Program, Protocol, make_program, ring_program
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
    assert ar.total_bytes(1000) == 1000
    assert rs.total_bytes(1000) == 4000  # per-rank input is world * out


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


def test_wan_step_count_is_exact():
    program = ring_program(Collective.ALL_REDUCE, 4)
    # ranks 0,1 in region 0; 2,3 in region 1: the flat ring crosses the
    # boundary somewhere in every one of its 6 steps
    assert program.wan_step_count(lambda r: r // 2) == program.num_steps
    assert program.wan_step_count(lambda r: 0) == 0


def test_protocol_factors_are_the_published_shape():
    assert Protocol.SIMPLE.bandwidth_efficiency == 1.0
    assert Protocol.SIMPLE.latency_factor == 1.0
    assert Protocol.LL.bandwidth_efficiency == 0.5
    assert Protocol.LL128.bandwidth_efficiency == pytest.approx(120 / 128)
    assert Protocol.LL.latency_factor < Protocol.LL128.latency_factor < 1.0


def test_json_round_trip_preserves_program():
    program = ring_program(
        Collective.REDUCE_SCATTER, 5, channels=2, protocol=Protocol.LL128
    )
    text = program.dumps()
    data = json.loads(text)
    assert data["format_version"] == 1
    assert data["kind"] == "reduce_scatter"
    assert data["protocol"] == "ll128"
    assert Program.loads(text) == program


def test_from_json_rejects_unknown_format_version():
    data = ring_program(Collective.ALL_REDUCE, 2).to_json()
    data["format_version"] = 99
    with pytest.raises(MalformedProgramError):
        Program.from_json(data)
