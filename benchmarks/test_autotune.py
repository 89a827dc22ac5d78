"""Autotune benchmarks: planner throughput and tuned-vs-static speedup.

Run by hand (no CI job, no committed baseline: nothing on a tenant's
critical path depends on these figures); results are written to the
git-ignored ``BENCH_autotune.json`` at the repo root:

* ``planner``: candidate evaluations/sec of the offline cost-model sweep
  (per collective kind), and the wall time of planning every (kind, size)
  cell of the Figure 6 size axis;
* ``tuned_vs_static``: per size regime, the online tuner's converged tail
  mean vs the best and worst static strategies — ``speedup_vs_worst`` is
  what tuning saves a tenant that guessed wrong, ``vs_best`` how close it
  lands to the oracle (1.0 = converged).
"""

import time
from pathlib import Path

import pytest

from repro.autotune import StrategyPlanner
from repro.cluster.specs import testbed_cluster
from repro.collectives.types import Collective
from repro.experiments.fig_autotune import run_autotune
from repro.experiments.setups import single_app_gpus
from repro.netsim.units import KB, MB

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_autotune.json"
_RESULTS = {"planner": {}, "tuned_vs_static": {}}

PLAN_SIZES = tuple(32 * KB * 4**i for i in range(8))  # the Figure 6 axis


@pytest.fixture(scope="module", autouse=True)
def _write_results(bench_writer):
    yield
    bench_writer(OUT_PATH, _RESULTS)
    print(f"\nwrote {OUT_PATH}")


def test_planner_throughput():
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, "8gpu")
    planner = StrategyPlanner(cluster)
    started = time.perf_counter()
    repeats = 20
    for _ in range(repeats):
        for size in PLAN_SIZES:
            planner.plan(Collective.ALL_REDUCE, size, gpus)
    elapsed = time.perf_counter() - started
    evals_per_sec = planner.plans_evaluated / elapsed
    _RESULTS["planner"]["evaluations_per_sec"] = round(evals_per_sec)
    _RESULTS["planner"]["evaluations"] = planner.plans_evaluated
    assert evals_per_sec > 100  # sanity floor, not a perf target


def test_table_build_wall_time():
    """Plan AllReduce and AllGather at every Figure 6 size."""
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, "8gpu")
    planner = StrategyPlanner(cluster)
    started = time.perf_counter()
    picks = [
        planner.best(kind, size, gpus)
        for kind in (Collective.ALL_REDUCE, Collective.ALL_GATHER)
        for size in PLAN_SIZES
    ]
    elapsed = time.perf_counter() - started
    _RESULTS["planner"]["table_build_seconds"] = round(elapsed, 4)
    _RESULTS["planner"]["table_entries"] = len(picks)
    assert len(picks) == 2 * len(PLAN_SIZES)


def test_tuned_vs_static_speedup():
    result = run_autotune(
        sizes=(64 * KB, 64 * MB), static_iters=2, tune_rounds=24, tail=4
    )
    for regime in result.regimes:
        label, best = regime.best_static
        worst = max(regime.static_means.values())
        _RESULTS["tuned_vs_static"][str(regime.size)] = {
            "best_static_label": label,
            "best_static_us": round(best * 1e6, 2),
            "worst_static_us": round(worst * 1e6, 2),
            "tuned_tail_us": round(regime.tuned_tail_mean * 1e6, 2),
            "tuned_first_us": round(regime.tuned_first * 1e6, 2),
            "retunes": regime.retunes,
            "speedup_vs_worst": round(worst / regime.tuned_tail_mean, 3),
            "vs_best": round(regime.tuned_tail_mean / best, 3),
            "converged": regime.converged,
        }
        assert regime.converged
        assert regime.barrier_only and regime.inconsistent == 0
