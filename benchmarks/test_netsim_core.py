"""Engine-core micro-benchmarks: solver churn and event-loop throughput.

Unlike the figure benchmarks, this file measures the *simulator core*
itself — the incremental max-min solver under flow churn, and the event
loop completing large flow populations — at the fleet scales the Figure 11
sweep produces (§6.5 fabric, thousands of concurrent flows).

Results are written to ``BENCH_netsim.json`` at the repo root so CI can
archive the trend:

* ``solver_churn``: solves/sec under add/remove churn at 1k and 10k flows,
  plus the solver's rebuild/Δ counters;
* ``event_loop``: completion events/sec and recompute counts at 1k and 10k
  total flows;
* ``scale_curve``: the datacenter-scale points — channelized NCCL-shaped
  waves (``repro.netsim.profile``) at 1k/10k/100k flows on 1/4/16-pod
  Clos fabrics (512–8192 GPUs); only ``sim.run()`` is timed, workload
  generation is not, and the gate is the exact event counts, not the
  wall clock;
* ``fig11``: the recorded pre-optimization wall clock of the Figure 11
  random-placement run and the wall clock measured now.

* ``telemetry_overhead``: the causal tracer's exact per-flow work on a
  fixed 2 000-flow run (rate-recorder calls and ``RateSegment``s per
  flow — the gate), and the traced/untraced wall ratio (recorded only).
* ``steady_state``: one ``small_allreduce`` collective's flows (8 ranks x
  2 channels on the testbed fabric, as 8 rank batches) replayed on one
  simulator and drained 200 times, with the exact solver memo hits,
  rate recomputations, heap pushes and completions (the gate).

The final test replays :mod:`benchmarks.compare_bench` in-process and
fails if ``rate_recomputations``, ``flows_completed``, the tracer's
per-flow counts or the steady-state counts of any point shared with the
committed baseline differ (CI runs the same script as a separate step
after archiving the file).
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.netsim.engine import FlowSimulator
from repro.netsim.fabric import large_cluster_fabric, nic_node
from repro.netsim.fairness import IncrementalFairnessSolver
from repro.netsim.flows import Flow

#: Wall clock of ``run_fig11(placement="random", num_jobs=25,
#: iterations=150, channels=4, seed=0)`` on the reference machine before
#: the incremental engine landed (full solver rebuild + full scans).
BASELINE_FIG11_WALL_S = 49.25

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_netsim.json"
_RESULTS = {
    "solver_churn": {},
    "event_loop": {},
    "scale_curve": {},
    "telemetry_overhead": {},
    "steady_state": {},
}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    OUT_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUT_PATH}")


def _random_paths(topology, rng, count):
    """Random inter-host NIC-to-NIC shortest paths on the §6.5 fabric."""
    num_hosts, nics = 96, 8
    paths = []
    for _ in range(count):
        src_host = rng.randrange(num_hosts)
        dst_host = rng.randrange(num_hosts - 1)
        if dst_host >= src_host:
            dst_host += 1
        src = nic_node(src_host, rng.randrange(nics))
        dst = nic_node(dst_host, rng.randrange(nics))
        choices = topology.shortest_paths(src, dst)
        paths.append(choices[rng.randrange(len(choices))])
    return paths


@pytest.mark.parametrize("num_flows", [1_000, 10_000])
def test_solver_churn(num_flows):
    """Add/remove churn against a live population of ``num_flows``."""
    fabric = large_cluster_fabric()
    topology = fabric.topology
    caps = {lid: link.capacity for lid, link in topology.links.items()}
    rng = random.Random(20240805 + num_flows)
    paths = _random_paths(topology, rng, num_flows)

    solver = IncrementalFairnessSolver(caps)
    flows = []
    for i, path in enumerate(paths):
        flow = Flow(1e9, path, f"f{i}")
        solver.add_flow(flow)
        flows.append(flow)
    solver.solve()  # warm build

    churn_ops = 200 if num_flows <= 1_000 else 50
    spare = _random_paths(topology, rng, churn_ops)
    t0 = time.perf_counter()
    for i in range(churn_ops):
        victim = flows[rng.randrange(len(flows))]
        solver.remove_flow(victim)
        fresh = Flow(1e9, spare[i], f"churn{i}")
        solver.add_flow(fresh)
        flows[flows.index(victim)] = fresh
        solver.solve()
    wall = time.perf_counter() - t0

    solves_per_sec = churn_ops / wall
    _RESULTS["solver_churn"][str(num_flows)] = {
        "churn_ops": churn_ops,
        "wall_s": wall,
        "solves_per_sec": solves_per_sec,
        "full_rebuilds": solver.full_rebuilds,
        "delta_updates": solver.delta_updates,
        "last_delta": solver.last_delta,
    }
    print(
        f"\nsolver churn @ {num_flows} flows: "
        f"{solves_per_sec:.1f} solves/s ({wall:.3f}s for {churn_ops} ops), "
        f"{solver.full_rebuilds} rebuilds / {solver.delta_updates} Δ-updates"
    )
    # Churn must ride the Δ path: at most the initial build plus the
    # occasional tombstone compaction, never one rebuild per op.
    assert solver.full_rebuilds <= 1 + churn_ops // 8


@pytest.mark.parametrize("num_flows", [1_000, 10_000])
def test_event_loop(num_flows):
    """Drain ``num_flows`` staggered flows through the completion loop."""
    fabric = large_cluster_fabric()
    sim = FlowSimulator(fabric.topology)
    rng = random.Random(77 + num_flows)
    paths = _random_paths(fabric.topology, rng, num_flows)
    # Stagger arrivals into waves so the live population stays in the
    # hundreds (the Figure 11 regime) while the loop still processes
    # ``num_flows`` completions.  Sizes shrink with the population so the
    # offered load (bytes/sec) stays constant and waves drain instead of
    # piling up.
    wave = 250
    scale = 1e9 * (1_000 / num_flows)
    for i, path in enumerate(paths):
        size = (0.5 + rng.random()) * scale
        when = (i // wave) * 0.05
        sim.schedule(when, lambda s=size, p=path: sim.add_flow(s, p))

    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0

    assert sim.flows_completed == num_flows
    events_per_sec = sim.flows_completed / wall
    counters = sim.perf_counters()
    _RESULTS["event_loop"][str(num_flows)] = {
        "wall_s": wall,
        "events_per_sec": events_per_sec,
        **counters,
    }
    print(
        f"\nevent loop @ {num_flows} flows: {events_per_sec:.1f} events/s "
        f"({wall:.3f}s), {counters['rate_recomputations']} recomputes, "
        f"{counters['solver_rebuilds_avoided']} rebuilds avoided"
    )
    assert counters["solver_rebuilds_avoided"] > 0


#: Channel fan-out of the scale-curve workload: flows per connection
#: sharing one exact (path, weight, tenant).  16 is a realistic NCCL
#: channel count; the value is recorded with each point so the curve is
#: self-describing.
SCALE_CHANNELS = 16

#: (flows, pods, flows completed, rate recomputations).  The two counts
#: are the engine's real property on this workload — ``add_flows``
#: batching plus one-timestep coalescing make a wave of ~2000 arrivals
#: (and every burst of same-instant completions) one solve — and they are
#: exact, where events/s on this host is not.
SCALE_POINTS = [
    pytest.param(1_000, 1, 992, 27, id="1kx1pod"),
    pytest.param(10_000, 4, 10_000, 484, id="10kx4pod"),
    pytest.param(10_000, 16, 10_000, 149, id="10kx16pod"),
    pytest.param(100_000, 16, 100_000, 2079, id="100kx16pod"),
]


@pytest.mark.parametrize("num_flows,pods,completions,recomputations", SCALE_POINTS)
def test_scale_curve(num_flows, pods, completions, recomputations):
    """Channelized waves on multi-pod Clos, timed run only."""
    from repro.netsim.fabric import multi_pod_clos
    from repro.netsim.profile import (
        DEFAULT_INTER_POD,
        prepare_scale_workload,
        scale_spec,
    )

    spec = scale_spec(pods)
    sim = FlowSimulator(multi_pod_clos(spec).topology)
    injected = prepare_scale_workload(
        sim, spec, num_flows, channels=SCALE_CHANNELS
    )
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    events_per_sec = injected / wall
    counters = sim.perf_counters()
    _RESULTS["scale_curve"][f"{num_flows}x{pods}pod"] = {
        "flows": injected,
        "pods": pods,
        "gpus": spec.gpus,
        "channels": SCALE_CHANNELS,
        "inter_pod_fraction": DEFAULT_INTER_POD,
        "wall_s": wall,
        "events_per_sec": events_per_sec,
        **counters,
    }
    print(
        f"\nscale curve @ {injected} flows / {pods} pod(s) ({spec.gpus} GPUs): "
        f"{events_per_sec:,.0f} events/s ({wall:.3f}s timed run), "
        f"{counters['rate_recomputations']} recomputes"
    )
    assert injected == counters["flows_completed"] == completions
    assert counters["rate_recomputations"] == recomputations


#: Flows per causal trace in the traced benchmark variant — the fan-out
#: of one 8-rank 2-channel collective, which is what a trace really
#: amortizes over in a deployment.
_FLOWS_PER_TRACE = 16


def _traced_event_loop(num_flows: int, traced: bool, work: dict = None) -> float:
    """Wall clock of the event-loop workload, with/without causal tracing.

    The traced variant is the full always-on configuration: a
    :class:`CausalTracer` observing *every* flow (per-link tenant
    occupancy), with every flow belonging to a trace — grouped
    ``_FLOWS_PER_TRACE`` to a trace like a real collective's rank/channel
    fan-out, each trace closed when its last flow completes.  ``work``
    (the untimed counting run) receives the ``RateSegment``s each closing
    trace recorded.
    """
    from repro.telemetry.causal import CausalTracer
    from repro.telemetry.metrics import MetricsRegistry

    fabric = large_cluster_fabric()
    sim = FlowSimulator(fabric.topology)
    tracer = (
        CausalTracer(sim, MetricsRegistry(), max_closed=8)
        if traced
        else None
    )
    rng = random.Random(99)  # same seed either way: identical workloads
    paths = _random_paths(fabric.topology, rng, num_flows)
    wave = 250
    scale = 1e9 * (1_000 / num_flows)
    open_counts: dict = {}

    def launch(size: float, path, i: int) -> None:
        job = f"t{i % 8}"
        if tracer is None:
            sim.add_flow(size, path, job_id=job)
            return
        group = i // _FLOWS_PER_TRACE
        if group not in open_counts:
            trace = tracer.open(
                sim.now, tenant=job, comm_id=f"comm{group}", seq=group,
                kind="bench", nbytes=int(size),
            )
            remaining = min(_FLOWS_PER_TRACE, num_flows - group * _FLOWS_PER_TRACE)
            open_counts[group] = [trace, remaining]
        trace_id = open_counts[group][0].trace_id

        def done(f, now, group=group) -> None:
            entry = open_counts[group]
            entry[1] -= 1
            if entry[1] == 0:
                tracer.close(entry[0], now, "completed")
                if work is not None:
                    work["segments"] += sum(
                        len(rec.segments) for rec in entry[0].all_flows()
                    )

        sim.add_flow(
            size, path, job_id=job, tags={"trace": trace_id}, on_complete=done
        )

    for i, path in enumerate(paths):
        size = (0.5 + rng.random()) * scale
        when = (i // wave) * 0.05
        sim.schedule(when, lambda s=size, p=path, i=i: launch(s, p, i))
    import gc

    gc.collect()
    gc.disable()  # GC pauses would land unevenly across the two variants
    try:
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    assert sim.flows_completed == num_flows
    if tracer is not None:
        assert tracer.traces_closed == len(open_counts)
        assert not tracer.live_traces()
    return wall


def _tracer_work(num_flows: int) -> dict:
    """What the tracer does per flow on the traced workload: rate-recorder
    calls and ``RateSegment``s recorded.  The workload is seeded, so both
    are exact on any host."""
    from repro.telemetry import causal

    work = {"recorder_calls": 0, "segments": 0}
    original = causal._BoundRecorder.on_rate_change

    def counted(self, flow, now, rate, bottleneck) -> None:
        work["recorder_calls"] += 1
        original(self, flow, now, rate, bottleneck)

    causal._BoundRecorder.on_rate_change = counted
    try:
        _traced_event_loop(num_flows, traced=True, work=work)
    finally:
        causal._BoundRecorder.on_rate_change = original
    return work


def test_telemetry_overhead():
    """The cost of always-on causal tracing, gated on a count.

    The gate is the tracer's exact per-flow work (recorder calls and
    segments per flow), which ``compare_bench.py`` holds ``==`` to the
    committed file.  The wall ratio is recorded beside it but asserted
    nowhere: it reads -3...19 % for the same code on a shared host.  It
    comes from adjacent off/on pairs (median of per-pair ratios), so
    container-level drift cancels out of each ratio as far as it can.
    """
    import statistics

    num_flows = 2_000
    reps = 7
    _traced_event_loop(500, traced=True)  # warm caches on both code paths
    pairs = [
        (
            _traced_event_loop(num_flows, traced=False),
            _traced_event_loop(num_flows, traced=True),
        )
        for _ in range(reps)
    ]
    off = statistics.median(w for w, _ in pairs)
    on = statistics.median(w for _, w in pairs)
    overhead = statistics.median(on_w / off_w for off_w, on_w in pairs) - 1.0
    work = _tracer_work(num_flows)
    calls = work["recorder_calls"] / num_flows
    segments = work["segments"] / num_flows
    _RESULTS["telemetry_overhead"][str(num_flows)] = {
        "tracing_off_wall_s": off,
        "tracing_on_wall_s": on,
        "overhead_fraction": overhead,
        "recorder_calls_per_flow": calls,
        "segments_per_flow": segments,
    }
    print(
        f"\ntelemetry overhead @ {num_flows} flows: off {off:.3f}s, "
        f"on {on:.3f}s ({100 * overhead:+.1f}%); per flow "
        f"{calls:.4f} recorder calls, {segments:.4f} segments"
    )
    assert 0 < segments <= calls


#: Rounds of the steady-state point.
STEADY_ROUNDS = 200


def _small_allreduce_batches():
    """The launch batches of one ``small_allreduce`` collective — a 64 KiB
    ring AllReduce over the testbed's 8 GPUs on 2 channels — as a
    deployment injects them, and the fabric they run on."""
    from repro import MccsDeployment, testbed_cluster
    from repro.netsim.engine import SimObserver

    class Recorder(SimObserver):
        def __init__(self) -> None:
            self.batches = []

        def on_flows_added(self, flows, now) -> None:
            self.batches.append([(f.size, f.path, f.channel) for f in flows])

    cluster = testbed_cluster()
    dep = MccsDeployment(cluster, ecmp_seed=0)
    client = dep.connect("bench")
    state = dep.create_communicator("bench", list(cluster.gpus), channels=2)
    comm = client.adopt_communicator(state.comm_id)
    recorder = Recorder()
    cluster.sim.add_observer(recorder)
    client.all_reduce(comm, 64 * 1024)
    dep.run()
    return cluster.sim.topology, recorder.batches


def test_steady_state():
    """A collective repeated on one communicator: after the first round
    every scalar solve is answered from the solver's memo."""
    topology, batches = _small_allreduce_batches()
    assert [len(batch) for batch in batches] == [2] * 8
    sim = FlowSimulator(topology)
    t0 = time.perf_counter()
    for _ in range(STEADY_ROUNDS):
        for batch in batches:
            sim.add_flows(batch, job_id="bench")
        sim.run()
    wall = time.perf_counter() - t0
    counters = sim.perf_counters()
    per_round = counters["solver_scalar_solves"] // STEADY_ROUNDS
    _RESULTS["steady_state"]["small_allreduce"] = {
        "rounds": STEADY_ROUNDS,
        "wall_s": wall,
        "rounds_per_sec": STEADY_ROUNDS / wall,
        **{
            name: counters[name]
            for name in (
                "solver_memo_hits", "solver_scalar_solves",
                "rate_recomputations", "heap_pushes", "flows_completed",
            )
        },
    }
    print(
        f"\nsteady state @ {STEADY_ROUNDS} rounds: "
        f"{STEADY_ROUNDS / wall:,.0f} rounds/s, "
        f"{counters['solver_memo_hits']} memo hits of "
        f"{counters['solver_scalar_solves']} scalar solves"
    )
    assert counters["flows_completed"] == 16 * STEADY_ROUNDS
    assert counters["solver_scalar_solves"] == per_round * STEADY_ROUNDS
    assert counters["solver_memo_hits"] == per_round * (STEADY_ROUNDS - 1)


def test_fig11_wall_clock(once, benchmark):
    """The Figure 11 fleet run that motivated the incremental engine."""
    from repro.experiments.fig11_simulation import run_fig11

    t0 = time.perf_counter()
    outcome = once(
        benchmark,
        run_fig11,
        placement="random",
        num_jobs=25,
        iterations=150,
        channels=4,
        seed=0,
    )
    wall = time.perf_counter() - t0
    import statistics

    speedups = {
        system: statistics.mean(outcome.speedups(system))
        for system in ("or", "or+ffa")
    }
    _RESULTS["fig11"] = {
        "config": {
            "placement": "random",
            "num_jobs": 25,
            "iterations": 150,
            "channels": 4,
            "seed": 0,
        },
        "before_wall_s": BASELINE_FIG11_WALL_S,
        "after_wall_s": wall,
        "speedup_vs_baseline": BASELINE_FIG11_WALL_S / wall,
        "mean_speedups": speedups,
    }
    print(
        f"\nfig11 wall: {wall:.2f}s (pre-optimization {BASELINE_FIG11_WALL_S}s, "
        f"{BASELINE_FIG11_WALL_S / wall:.2f}x)"
    )
    # Regression tripwire, loose enough for slow CI runners.
    assert wall < BASELINE_FIG11_WALL_S / 1.5


def test_no_throughput_regression_vs_committed_baseline():
    """The in-process twin of the CI compare step (compare_bench.py):
    the engine's event counts and the tracer's per-flow work equal the
    committed ones.

    Runs after every measurement above (pytest executes this file in
    definition order), so it sees the fresh numbers before they overwrite
    ``BENCH_netsim.json`` and compares them with the committed baseline.
    """
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from compare_bench import (
            BENCH_PATH, GUARDS, committed_baseline, compare_throughput,
        )
    finally:
        sys.path.pop(0)

    baseline = committed_baseline()
    failures = [
        line
        for guard in GUARDS
        if guard.path == BENCH_PATH
        for line in compare_throughput(
            baseline, _RESULTS, sections=guard.sections,
            metric=guard.metric, exact=guard.exact,
        )
    ]
    assert not failures, "\n".join(failures)
