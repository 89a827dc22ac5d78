"""The multi-pod workload helpers and the profile harness.

``repro.netsim.profile`` generates the channelized wave workload the
scale-curve benchmark (``benchmarks/test_netsim_core.py``) records; these
checks keep its fabric sizes, synthesized paths and completion counts
honest on a tiny two-pod fabric, and smoke-run the CLI.
"""

import random

from repro.netsim.engine import FlowSimulator
from repro.netsim.fabric import MultiPodSpec, multi_pod_clos
from repro.netsim.profile import (
    main,
    prepare_scale_workload,
    run_scale_workload,
    scale_spec,
    synthetic_connections,
)

#: 2 pods x 2 leaves x 2 hosts x 2 NICs (16 GPUs).
TINY_SPEC = MultiPodSpec(
    pods=2,
    spines_per_pod=2,
    leaves_per_pod=2,
    hosts_per_leaf=2,
    nics_per_host=2,
    core_switches=2,
)


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
    sim = FlowSimulator(multi_pod_clos(TINY_SPEC).topology)
    injected = prepare_scale_workload(
        sim, TINY_SPEC, 64, channels=4, wave_flows=32
    )
    assert injected >= 64
    sim.run()
    assert sim.flows_completed == injected
    assert "solver_coalesced_solves" in sim.perf_counters()


def test_run_scale_workload_counts_completions():
    sim = FlowSimulator(multi_pod_clos(TINY_SPEC).topology)
    assert run_scale_workload(sim, TINY_SPEC, 32, channels=4) >= 32


def test_profile_main_smoke(capsys):
    main(["--flows", "32", "--pods", "1", "--channels", "4", "--top", "3"])
    out = capsys.readouterr().out
    assert "events/s" in out
    assert "perf counters:" in out
