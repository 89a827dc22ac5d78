"""Exactness and unit coverage of the datacenter-scale fast modes.

The macro-flow aggregation (:mod:`repro.netsim.macroflow`) and the
sharded solver (:mod:`repro.netsim.sharding`) are *exact* optimizations:
every rate and completion time they produce must be bit-identical to the
per-flow reference engine, not merely close.  The property test here
drives all four engine configurations (reference, macro, sharded,
macro+sharded) through the same randomized add / batch-add / cancel /
gate / link-fail churn on a two-pod Clos fabric and compares the full
per-flow outcome — start, end, failure — with ``==`` on floats.

The unit tests pin the mechanics the property test exercises blindly:
domain merge/dissolve accounting, the solo-domain fast path, macro group
lifecycle, the batched ``add_flows`` surface, and the multi-pod fabric /
profile-harness helpers the scale benchmark builds on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import FlowSimulator
from repro.netsim.fabric import MultiPodSpec, multi_pod_clos
from repro.netsim.profile import (
    connection_path,
    prepare_scale_workload,
    run_scale_workload,
    scale_spec,
    synthetic_connections,
)

#: Tiny two-pod fabric for churn tests: 2 pods x 2 leaves x 2 hosts x 2
#: NICs (16 GPUs) — big enough for merges across the core tier, small
#: enough to rebuild per drive (link failures mutate the topology).
TINY_SPEC = MultiPodSpec(
    pods=2,
    spines_per_pod=2,
    leaves_per_pod=2,
    hosts_per_leaf=2,
    nics_per_host=2,
    core_switches=2,
)

#: The three fast configurations, each checked against the reference.
FAST_MODES = [
    pytest.param(True, False, id="macro"),
    pytest.param(False, True, id="sharded"),
    pytest.param(True, True, id="macro+sharded"),
]


def _connection_pool(count=12, inter_pod_fraction=0.4, seed=7):
    """Deterministic (path, job) templates spanning both pods."""
    rng = random.Random(seed)
    return list(
        synthetic_connections(
            TINY_SPEC, rng, count, inter_pod_fraction=inter_pod_fraction
        )
    )


_POOL = _connection_pool()

_churn_op = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, len(_POOL) - 1),  # connection template
        st.sampled_from([0.5, 1.0, 2.0]),  # dyadic weight
        st.integers(1, 4),  # channel fan-out (batch size)
        st.integers(1, 6),  # size multiplier
    ),
    st.tuples(st.just("cancel"), st.integers(0, 199)),
    st.tuples(st.just("gate"), st.integers(0, 199)),
    st.tuples(st.just("fail"), st.integers(0, len(_POOL) - 1)),
    # Live bandwidth drift: resize a link already carrying traffic.  The
    # factors are dyadic so rate arithmetic stays exactly representable
    # and the cross-mode comparison can keep using ``==`` on floats.
    st.tuples(
        st.just("bw"),
        st.integers(0, len(_POOL) - 1),
        st.sampled_from([0.25, 0.5, 2.0]),
    ),
    st.tuples(st.just("advance"), st.floats(0.01, 0.4)),
)


def _drive(ops, macro, sharded):
    """Replay one churn script; returns the per-flow outcome summary.

    The summary deliberately excludes ``flow_id`` (the global flow
    counter differs between runs) and compares floats exactly: creation
    order is identical across modes, so position identifies the flow.
    """
    fabric = multi_pod_clos(TINY_SPEC)
    sim = FlowSimulator(fabric.topology, macro=macro, sharded=sharded)
    handles = []
    rejected = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            _, conn, weight, channels, size_k = op
            path, job = _POOL[conn]
            try:
                handles.extend(
                    sim.add_flows(
                        [(2e7 * size_k, path, c) for c in range(channels)],
                        job_id=job, weight=weight,
                    )
                )
            except Exception as exc:  # path crosses a failed link
                rejected.append((len(handles), type(exc).__name__))
        elif kind == "cancel":
            live = [f for f in handles if f.end_time is None and not f.failed]
            if live:
                sim.cancel_flow(live[op[1] % len(live)])
        elif kind == "gate":
            live = [f for f in handles if f.end_time is None and not f.failed]
            if live:
                victim = live[op[1] % len(live)]
                sim.gate_flow(victim, not victim.gated)
        elif kind == "fail":
            link = _POOL[op[1]][0][0]
            try:
                sim.fail_link(link)
            except Exception as exc:
                rejected.append(("fail", type(exc).__name__))
        elif kind == "bw":
            link = _POOL[op[1]][0][0]
            try:
                sim.set_link_bandwidth(
                    link, sim.topology.link(link).capacity * op[2]
                )
            except Exception as exc:  # link already failed
                rejected.append(("bw", type(exc).__name__))
        else:  # advance
            sim.run(until=sim.now + op[1])
    sim.run()  # drain whatever can still finish (gated flows stay put)
    summary = [
        (f.size, f.weight, f.start_time, f.end_time, f.failed, f.gated)
        for f in handles
    ]
    return summary, rejected, sim.now, sim.flows_completed


@given(ops=st.lists(_churn_op, min_size=1, max_size=25))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_fast_modes_bit_identical_under_churn(ops):
    reference = _drive(ops, macro=False, sharded=False)
    for macro, sharded in ((True, False), (False, True), (True, True)):
        assert _drive(ops, macro, sharded) == reference


# ----------------------------------------------------------------------
# sharding mechanics
# ----------------------------------------------------------------------
def _sim(macro=False, sharded=False):
    fabric = multi_pod_clos(TINY_SPEC)
    return FlowSimulator(fabric.topology, macro=macro, sharded=sharded)


def _pod_local_path(pod, host=0, nic=0, peer_nic=1):
    base = pod * TINY_SPEC.hosts_per_pod
    return connection_path(
        TINY_SPEC, base + host, nic, base + host + 1, peer_nic, spine=0, core=0
    )


def test_sharded_disjoint_flows_get_separate_domains():
    sim = _sim(sharded=True)
    sim.add_flow(1e9, _pod_local_path(0))
    sim.add_flow(1e9, _pod_local_path(1))
    sim.run(until=0.01)
    counters = sim.perf_counters()
    assert counters["solver_domains"] == 2
    assert counters["solver_domain_merges"] == 0
    # Singleton components take the solo fast path: no solver is built.
    assert counters["solver_solo_solves"] >= 2


def test_sharded_spanning_flow_merges_and_dissolves():
    sim = _sim(sharded=True)
    sim.add_flow(1e9, _pod_local_path(0))
    sim.add_flow(1e9, _pod_local_path(1))
    # An inter-pod flow sharing a NIC uplink with the first flow and a
    # leaf downlink with the second fuses the two domains.
    base = TINY_SPEC.hosts_per_pod
    bridge_path = connection_path(TINY_SPEC, 0, 0, base + 1, 1, spine=0, core=0)
    sim.add_flow(1e9, bridge_path)
    sim.run(until=0.01)
    counters = sim.perf_counters()
    assert counters["solver_domains"] == 1
    assert counters["solver_domain_merges"] >= 1
    assert counters["solver_max_domain_flows"] == 3
    sim.run()  # all complete; emptied domains dissolve
    assert sim.perf_counters()["solver_domain_dissolutions"] >= 1
    assert sim.perf_counters()["solver_domains"] == 0


def test_sharded_rates_match_reference_on_shared_link():
    path = _pod_local_path(0)
    ref, fast = _sim(), _sim(sharded=True)
    for sim in (ref, fast):
        sim.add_flow(1e9, path, weight=0.5)
        sim.add_flow(1e9, path, weight=2.0)
        sim.run(until=0.001)
    ref_rates = sorted(f.rate for f in ref.active_flows())
    fast_rates = sorted(f.rate for f in fast.active_flows())
    assert fast_rates == ref_rates  # bit-identical, not approx


# ----------------------------------------------------------------------
# macro-flow mechanics
# ----------------------------------------------------------------------
def test_macro_channel_fanout_collapses_to_one_group():
    sim = _sim(macro=True)
    path = _pod_local_path(0)
    flows = sim.add_flows([(1e9, path, c) for c in range(8)], job_id="job0")
    sim.run(until=0.001)
    counters = sim.perf_counters()
    assert counters["macro_groups"] == 1
    assert counters["macro_members"] == 8
    assert counters["macro_peak_group_size"] == 8
    # All channels share one (path, weight, tenant): identical rates.
    rates = {f.rate for f in flows}
    assert len(rates) == 1
    sim.run()
    assert sim.flows_completed == 8
    assert sim.perf_counters()["macro_groups"] == 0


def test_macro_distinct_weights_get_distinct_groups():
    sim = _sim(macro=True)
    path = _pod_local_path(0)
    sim.add_flow(1e9, path, weight=1.0)
    sim.add_flow(1e9, path, weight=2.0)
    sim.run(until=0.001)
    assert sim.perf_counters()["macro_groups"] == 2


def test_add_flows_equivalent_to_repeated_add_flow():
    path = _pod_local_path(0)
    batched, loose = _sim(), _sim()
    flows_b = batched.add_flows([(3e8, path, None)] * 4, job_id="j")
    flows_l = [loose.add_flow(3e8, path, job_id="j") for _ in range(4)]
    assert len(flows_b) == 4
    batched.run()
    loose.run()
    assert [f.end_time for f in flows_b] == [f.end_time for f in flows_l]


def _mixed_route_batch():
    """One launch batch over every kind of route mix the solvers must get
    right: a channel fan-out (same path object), the same route again
    after a different one, an equal-but-not-identical path tuple, and an
    inter-pod route that fuses sharing domains."""
    local0, local1 = _pod_local_path(0), _pod_local_path(1)
    base = TINY_SPEC.hosts_per_pod
    bridge = connection_path(TINY_SPEC, 0, 0, base + 1, 1, spine=0, core=0)
    return [
        (3e8, local0, 0),
        (3e8, local0, 1),
        (5e8, local1, 0),
        (2e8, tuple(list(local0)), 2),
        (4e8, bridge, 0),
        (4e8, bridge, 1),
        (1e8, local1, 1),
    ]


@pytest.mark.parametrize(
    "macro,sharded",
    [pytest.param(False, False, id="reference"), *FAST_MODES],
)
def test_mixed_route_batch_equals_per_flow_adds(macro, sharded):
    batched, loose = _sim(macro, sharded), _sim(macro, sharded)
    rates = []
    for sim in (batched, loose):
        sim.add_flow(6e8, _pod_local_path(1), job_id="other")  # bystander
    transfers = _mixed_route_batch()
    flows_b = batched.add_flows(transfers, job_id="j", weight=2.0)
    flows_l = [
        loose.add_flow(size, path, job_id="j", weight=2.0)
        for size, path, _channel in transfers
    ]
    for sim, flows in ((batched, flows_b), (loose, flows_l)):
        sim.run(until=0.001)
        rates.append([sim.rate_of(f) for f in flows])
        sim.run()
    assert [f.flow_id for f in flows_b] == [f.flow_id for f in flows_l]
    assert [f.flow_id for f in flows_b] == [f"flow{n}" for n in range(1, 8)]
    assert [f.channel for f in flows_b] == [t[2] for t in transfers]
    assert rates[0] == rates[1]  # bit-identical, not approx
    assert [f.end_time for f in flows_b] == [f.end_time for f in flows_l]
    assert batched.perf_counters() == loose.perf_counters()
    if macro:
        # (path, weight, tenant) groups formed in arrival order, however
        # the batch interleaves its routes.
        assert batched.perf_counters()["macro_peak_group_size"] == 3


def test_batch_is_all_or_nothing_on_a_down_link():
    from repro.netsim.errors import LinkDownError

    sim = _sim(macro=True, sharded=True)
    good, bad = _pod_local_path(0), _pod_local_path(1)
    sim.fail_link(bad[1])
    with pytest.raises(LinkDownError):
        sim.add_flows([(1e8, good, 0), (1e8, bad, 0), (1e8, good, 1)])
    assert sim.active_flow_count() == 0
    # Nothing was numbered either: ids stay dense in injection order.
    assert sim.add_flow(1e8, good).flow_id == "flow0"
    assert sim.add_flows([]) == []


# ----------------------------------------------------------------------
# multi-pod fabric + profile harness helpers
# ----------------------------------------------------------------------
def test_scale_spec_hits_roadmap_gpu_band():
    assert scale_spec(1).gpus == 512
    assert scale_spec(4).gpus == 2048
    assert scale_spec(16).gpus == 8192


def test_connection_paths_are_valid_on_the_fabric():
    fabric = multi_pod_clos(TINY_SPEC)
    rng = random.Random(3)
    for path, _job in synthetic_connections(
        TINY_SPEC, rng, 40, inter_pod_fraction=0.5
    ):
        fabric.topology.validate_path(path)  # raises on any bad link id


def test_prepare_scale_workload_runs_to_completion():
    fabric = multi_pod_clos(TINY_SPEC)
    sim = FlowSimulator(fabric.topology, macro=True, sharded=True)
    injected = prepare_scale_workload(
        sim, TINY_SPEC, 64, channels=4, wave_flows=32
    )
    assert injected >= 64
    sim.run()
    assert sim.flows_completed == injected
    counters = sim.perf_counters()
    assert "solver_coalesced_solves" in counters
    assert "solver_solo_solves" in counters


def test_run_scale_workload_counts_completions():
    fabric = multi_pod_clos(TINY_SPEC)
    sim = FlowSimulator(fabric.topology, macro=True, sharded=True)
    assert run_scale_workload(sim, TINY_SPEC, 32, channels=4) >= 32


def test_profile_main_smoke(capsys):
    from repro.netsim.profile import main

    main(["--flows", "32", "--pods", "1", "--channels", "4", "--top", "3"])
    out = capsys.readouterr().out
    assert "events/s" in out
    assert "perf counters:" in out
