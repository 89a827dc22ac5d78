"""Names, units and bounds of everything the benchmark reports.

The one place metric and workload names are spelled: ``worker.py`` fills
them in, ``run.py`` prints and compares them, ``test_selfcheck.py``
checks that ``BENCHMARK.json`` at the repo root lists the same ones.
Imports nothing from ``repro`` so ``run.py compare`` works anywhere.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the parent's median by which the metric may get worse;
    #: 0.0 means "must repeat exactly"; None means "no bound" (per-layer).
    bound: Optional[float] = None


#: Length of a timed run at the baseline speed; BENCHMARK.json's
#: ``run_seconds`` and the default of ``run.py --seconds``.
RUN_SECONDS = 12


class WorkloadSpec(NamedTuple):
    name: str
    why: str
    #: Rounds of a timed run, sized so that it takes ``RUN_SECONDS`` at
    #: the baseline speed.  The count is fixed, not the duration, so ops
    #: and every simulated-time figure repeat exactly for a seed.
    rounds: int
    #: Percentile reported as ``sim_op_ms_tail``: the highest one that
    #: leaves >= 10 samples beyond it at ``rounds`` rounds.
    tail_pct: float
    #: Share of the workload's time spent in numpy over bulk arrays, which
    #: a busy host slows far less than Python; weighs the two host-speed
    #: probes (``probe.py``).  Chosen once, as the weight at which ten
    #: runs that straddled the host's fast and slow modes spread least.
    numpy_share: float = 0.0


WORKLOADS: List[WorkloadSpec] = [
    WorkloadSpec(
        "small_allreduce",
        "64 KiB AllReduce, one in flight: per-collective fixed cost of every "
        "control-plane, solver and telemetry layer; bytes barely matter",
        rounds=45,
        tail_pct=99.0,
    ),
    WorkloadSpec(
        "large_allreduce",
        "16 MiB AllReduce on the same communicator: the numpy data plane is "
        "~all of the work, far past the LLC; control-plane PRs must not move it",
        rounds=25,
        tail_pct=90.0,
        numpy_share=1.0,
    ),
    WorkloadSpec(
        "mixed_kinds",
        "5 kinds x ring/tree/halving-doubling x world 4/6/8 plus the synthesized "
        "IR program, every op byte-checked: catches a ring-AllReduce-only trick",
        rounds=14,
        tail_pct=98.0,
        numpy_share=0.5,
    ),
    WorkloadSpec(
        "multi_tenant",
        "768-GPU cluster, waves of Poisson 16/32-GPU jobs, locality rings and FFA on "
        "every join and exit: thousands of flows, netsim + telemetry + policies, no payload",
        rounds=12,
        tail_pct=98.0,
    ),
    WorkloadSpec(
        "gateway_fleet",
        "96 tenants, open-loop Poisson x diurnal requests through the whole "
        "ServiceGateway stack: the only workload where repro.service dominates",
        rounds=18,
        tail_pct=99.0,
    ),
    WorkloadSpec(
        "reconfig_churn",
        "create, allocate, reconfigure mid-stream, free, destroy per tenant cycle: "
        "the small_allreduce code path cold - cache misses, connections, journal",
        rounds=45,
        tail_pct=99.0,
    ),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]

#: What a user of the reproduction sees.  *Wall* = host time of this
#: Python program, normalised to the reference host (``probe.py``);
#: *sim* = simulated time of the modelled cluster.
END_TO_END: List[Metric] = [
    Metric("ops_per_s", "1/s", "higher", 0.10),
    Metric("op_ms_p50", "ms", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.10),  # or SETUP_FLOOR_S, if that is more
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("wall_s", "s", "lower", 0.10),
    # Deterministic or always-zero: the driver's BENCHMARK.json cannot
    # carry them (its metrics must vary and never be 0); ``run.py
    # compare`` holds them to "exactly equal" instead.
    Metric("sim_op_ms_p50", "ms", "lower", 0.0),
    Metric("sim_op_ms_tail", "ms", "lower", 0.0),
    Metric("failed_share", "share", "lower", 0.0),
]

#: ``setup_s`` may worsen by 10 % or by this much, whichever is more.
SETUP_FLOOR_S = 0.1

#: What the driver's ``--trace 0`` line carries, with BENCHMARK.json's
#: ``bound`` for each: the wall metrics, which vary run to run and are
#: never 0.  That bound is the driver's, and does two jobs at once: it is
#: the regression limit, and the driver refuses a benchmark whose values
#: over ten seeds spread wider than it.  On this box they spread 3-14 %
#: (README.md, *Noise*), so the bounds above would get the benchmark
#: refused; these are the tightest that will not.  ``run.py compare``
#: judges by the bounds above and says ``unresolved`` where it cannot.
DRIVER_BOUNDS: Dict[str, float] = {
    "ops_per_s": 0.25,
    "op_ms_p50": 0.25,
    "setup_s": 0.25,
    "peak_rss_mb": 0.10,
    "wall_s": 0.25,
}

#: Ledger layers; a source file belongs to the first prefix (relative to
#: ``src/repro/``) that matches.  ``bench`` is this directory, ``other``
#: is stdlib, numpy's Python and the repro packages not listed.
LAYER_PREFIXES = [
    ("core.shim", "core/shim.py"),
    ("core.service", "core/service.py"),
    ("core.deployment", "core/deployment.py"),
    ("core.proxy", "core/proxy.py"),
    ("core.communicator", "core/communicator.py"),
    ("core.reconfig", "core/reconfig.py"),
    ("core.controller", "core/controller.py"),
    ("core.controller", "core/policies/"),
    ("core.journal", "core/journal.py"),
    ("core.tracing", "core/tracing.py"),
    ("core.other", "core/"),
    ("cluster", "cluster/"),
    ("transport", "transport/"),
    ("netsim.engine", "netsim/engine.py"),
    ("netsim.fairness", "netsim/fairness.py"),
    ("netsim.other", "netsim/"),
    ("collectives", "collectives/"),
    ("synth", "synth/"),
    ("telemetry.metrics", "telemetry/metrics.py"),
    ("telemetry.causal", "telemetry/causal.py"),
    ("telemetry.other", "telemetry/"),
    ("service.gateway", "service/gateway.py"),
    ("service.other", "service/"),
    ("workloads", "workloads/"),
    ("autotune", "autotune/"),
]
LAYERS: List[str] = list(dict.fromkeys(name for name, _ in LAYER_PREFIXES)) + [
    "bench",
    "other",
]

_COUNTS: List[Metric] = [
    Metric("sim.op_ms_p50", "ms", "lower"),
    Metric("sim.op_ms_tail", "ms", "lower"),
    Metric("bench.issue_ms_per_op", "ms", "lower"),
    Metric("bench.drive_ms_per_op", "ms", "lower"),
    Metric("bench.verify_ms_per_op", "ms", "lower"),
    Metric("bench.trace_overhead_share", "share", "lower"),
    Metric("bench.op_ms_p99", "ms", "lower"),
    Metric("bench.ops_per_s_iqr_share", "share", "lower"),
    Metric("bench.gc_collections", "count", "lower"),
    Metric("bench.gc_pause_share", "share", "lower"),
    Metric("bench.host_slowdown", "ratio", "lower"),
    Metric("netsim.flows_per_op", "count", "lower"),
    Metric("netsim.rate_recomputations_per_op", "count", "lower"),
    Metric("netsim.heap_pushes_per_op", "count", "lower"),
    Metric("netsim.scalar_solve_share", "share", "higher"),
    Metric("netsim.events_per_s", "1/s", "higher"),
    Metric("collectives.payload_gb_per_s", "GB/s", "higher"),
    Metric("collectives.peak_alloc_mb", "MB", "lower"),
    Metric("core.program_cache_hit_share", "share", "higher"),
    Metric("core.journal.records_per_op", "count", "lower"),
    Metric("core.reconfig.sessions_per_op", "count", "lower"),
    Metric("core.reconfig.sim_ms_mean", "ms", "lower"),
    Metric("core.inconsistent_collectives", "count", "lower"),
    Metric("transport.connections_per_op", "count", "lower"),
    Metric("telemetry.series_count", "count", "lower"),
    Metric("telemetry.spans_evicted", "count", "lower"),
    Metric("service.admitted_share", "share", "higher"),
    Metric("service.retries_per_op", "count", "lower"),
    Metric("service.shed_share", "share", "lower"),
    Metric("service.queue_wait_sim_ms_mean", "ms", "lower"),
]

PER_LAYER: List[Metric] = (
    [Metric(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    + [Metric(f"{layer}.calls_per_op", "count", "lower") for layer in LAYERS]
    + _COUNTS
)

#: Environment pinned for every worker subprocess.
PINNED_ENV: Dict[str, str] = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def workload(name: str) -> WorkloadSpec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
