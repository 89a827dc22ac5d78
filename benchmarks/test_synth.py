"""Synthesis benchmarks: search throughput and measured schedule wins.

Results are written to ``BENCH_synth.json`` at the repo root so CI can
archive the trend and ``benchmarks/compare_bench.py`` can guard it:

* ``synthesizer``: validated-and-scored programs/sec of the bounded
  search (per fabric), plus candidate/front counts — the synthesizer
  must stay cheap enough to run at communicator-creation time;
* ``validator``: full validations/sec of the biggest generated program;
* ``speedup``: per size, the *measured* (flow data plane, not
  predicted) speedup of the best synthesized schedule over the best
  built-in on the two-region WAN fabric.  The guard failing means a
  change lost the paper-level win;
* ``data_plane``: what the one executor (``repro.collectives.executor``)
  does with an 8-rank float32 AllReduce run as the service runs a
  repeated collective — the family's plan bound once to the buffers
  (``plan.bind``) and its bound run replayed, writing receive buffers in
  place and taking scratch from one warm ``Staging``: GB/s (output bytes
  over wall time),
  tracemalloc peak, the staging buffer's size (``staging_mb``, MiB
  held after the warm run) and the numpy calls one run makes
  (``records``, its resolved cache-blocked records) at 64 KiB / 1.5 MiB
  / 16 MiB for ring, tree, halving-doubling and the hierarchical
  synthesized program, plus each family's cold generate-and-compile
  time; and three more ring rows:
  ReduceScatter and Reduce at 1.5 MiB (the kinds that need scratch) and
  AllReduce at 64 MiB.  ``benchmarks/e2e`` referees the end-to-end
  effect; this is the leaf number behind its ``collectives`` layer.
"""

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.specs import multi_region_cluster, testbed_cluster
from repro.collectives import (
    Staging,
    compile_program,
    double_tree_program,
    halving_doubling_program,
    ring_program,
)
from repro.collectives.reference import reference_outputs
from repro.collectives.types import Collective, ReduceOp, input_bytes, reduce_many
from repro.core.algorithms import AlgorithmContext, get_algorithm
from repro.experiments.fig_synth import run_synth
from repro.experiments.setups import single_app_gpus
from repro.netsim.fabric import RegionSpec
from repro.netsim.units import KB, MB, format_size
from repro.synth import (
    Synthesizer,
    SynthAlgorithm,
    hierarchical_allreduce_program,
    validate_program,
)

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_synth.json"
_RESULTS = {"synthesizer": {}, "validator": {}, "speedup": {}, "data_plane": {}}


@pytest.fixture(scope="module", autouse=True)
def _write_results(bench_writer):
    yield
    bench_writer(OUT_PATH, _RESULTS)
    print(f"\nwrote {OUT_PATH}")


def _placement(fabric):
    if fabric == "testbed":
        cluster = testbed_cluster()
        return cluster, list(single_app_gpus(cluster, "8gpu"))
    cluster = multi_region_cluster(RegionSpec())
    return cluster, [h.gpus[0] for h in cluster.hosts]


@pytest.mark.parametrize("fabric", ["testbed", "two_region"])
def test_synthesizer_search_throughput(fabric):
    cluster, gpus = _placement(fabric)
    repeats = 10
    started = time.perf_counter()
    for _ in range(repeats):
        synthesizer = Synthesizer(cluster, gpus)
        front = synthesizer.search(Collective.ALL_REDUCE)
    elapsed = time.perf_counter() - started
    per_sec = synthesizer.candidates_generated * repeats / elapsed
    _RESULTS["synthesizer"][fabric] = {
        "programs_per_sec": round(per_sec),
        "candidates": synthesizer.candidates_generated,
        "front": len(front),
        "search_seconds": round(elapsed / repeats, 4),
    }
    assert front
    assert elapsed / repeats < 5.0  # cheap enough for communicator setup


def test_validator_throughput():
    program = hierarchical_allreduce_program([[i * 4 + j for j in range(4)]
                                              for i in range(4)])
    repeats = 50
    started = time.perf_counter()
    for _ in range(repeats):
        validate_program(program)
    elapsed = time.perf_counter() - started
    _RESULTS["validator"]["hier_16rank"] = {
        "validations_per_sec": round(repeats / elapsed),
        "instructions": sum(len(rp) for rp in program.rank_programs),
    }


def test_measured_speedup_on_wan_fabric():
    results = run_synth(
        fabrics=("two_region",),
        sizes=(64 * KB, 16 * MB, 64 * MB),
        static_iters=2,
        tune_rounds=20,
        tail=4,
    )
    (result,) = results
    for point in result.points:
        _RESULTS["speedup"][f"two_region/{format_size(point.size)}"] = {
            "speedup": round(point.speedup, 3),
            "builtin_label": point.builtin_label,
            "synth_label": point.synth_label,
            "builtin_us": round(point.builtin_seconds * 1e6, 2),
            "synth_us": round(point.synth_seconds * 1e6, 2),
        }
        assert point.synth_wins
    tuned = result.tuned
    _RESULTS["speedup"]["two_region/tuned"] = {
        # the guard compares higher-is-better: first/tail > 1 means the
        # tuner's converged strategy beat its starting point
        "speedup": round(tuned.first / tuned.tail_mean, 3),
        "algorithm": tuned.algorithm,
        "retunes": tuned.retunes,
    }
    assert tuned.adopted_synth
    assert tuned.barrier_only and tuned.inconsistent == 0


_WORLD = 8
_HIER_GROUPS = [[0, 1, 2, 3], [4, 5, 6, 7]]
#: name -> generator of the program that family's run_data executes
_DATA_PLANE = {
    "ring": lambda: ring_program(Collective.ALL_REDUCE, _WORLD, channels=2),
    "tree": lambda: double_tree_program(_WORLD, channels=2),
    "halving_doubling": lambda: halving_doubling_program(_WORLD, channels=2),
    "synth:hier": lambda: hierarchical_allreduce_program(_HIER_GROUPS, channels=2),
}


def _measure_data_plane(key, algorithm, kind, nbytes):
    """Time ``kind`` with ``nbytes`` of output per rank as a bound run
    replayed on the same buffers (what the service's views record does
    for a repeated collective), receive buffers written in place and
    scratch taken from one warm ``Staging``, into
    ``_RESULTS["data_plane"][key]``."""
    rng = np.random.default_rng(0)
    sends = [
        rng.integers(-8, 8, input_bytes(kind, nbytes, _WORLD) // 4, dtype=np.int8)
        .astype(np.float32)
        for _ in range(_WORLD)
    ]
    recvs = [np.zeros(nbytes // 4, np.float32) for _ in range(_WORLD)]
    ctx = AlgorithmContext(
        kind=kind, out_bytes=nbytes, world=_WORLD, rank=0,
        root=0, ring_order=tuple(range(_WORLD)), channels=2,
    )
    staging = Staging()
    plan, order = algorithm.plan(ctx)
    # The shared path binds and applies once; the kept bound run replays.
    algorithm.run_data(ctx, sends, ReduceOp.SUM, out=recvs, staging=staging)
    once = plan.bind(sends, ReduceOp.SUM, order, recvs, staging).apply
    once()  # warm: plan compiled, calls resolved, pages and staging touched
    # small ints: exact in any order; one reduced vector, not one per rank
    if kind is Collective.ALL_REDUCE:
        expected = [reduce_many(ReduceOp.SUM, sends)] * _WORLD
    else:
        expected = reference_outputs(kind, sends)
    assert all(np.array_equal(view, want) for view, want in zip(recvs, expected))
    times = []
    while len(times) < 5 or (sum(times) < 0.3 and len(times) < 200):
        started = time.perf_counter()
        once()
        times.append(time.perf_counter() - started)
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    once()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    seconds = float(np.median(times))
    _RESULTS["data_plane"][key] = {
        "gb_per_s": round(nbytes / seconds / 1e9, 3),
        "ms": round(seconds * 1e3, 4),
        "peak_alloc_mb": round((peak - base) / 1e6, 3),
        "staging_mb": round(staging.nbytes / MB, 3),
        # numpy calls per run; the working vector is the input here
        "records": len(plan.records(sends[0].size, 4, order)),
    }
    # in place, scratch staged: a warm run allocates nothing payload-sized
    assert peak - base < nbytes / 4 + 64 * KB


@pytest.mark.parametrize("name", list(_DATA_PLANE))
def test_data_plane_throughput(name):
    generate = _DATA_PLANE[name]
    cold = []
    for _ in range(5):
        started = time.perf_counter()
        compile_program(generate())
        cold.append(time.perf_counter() - started)
    _RESULTS["data_plane"][f"{name}/compile"] = {
        "cold_compile_us": round(float(np.median(cold)) * 1e6, 1)
    }
    if name.startswith("synth:"):
        algorithm = SynthAlgorithm(generate())
    else:
        algorithm = get_algorithm(name)
    for nbytes in (64 * KB, 3 * MB // 2, 16 * MB):
        _measure_data_plane(
            f"{name}/{format_size(nbytes)}", algorithm, Collective.ALL_REDUCE, nbytes
        )


@pytest.mark.parametrize(
    "kind, nbytes",
    [
        # the two kinds whose working vectors are scratch, not the output
        (Collective.REDUCE_SCATTER, 3 * MB // 2),
        (Collective.REDUCE, 3 * MB // 2),
        # four times past the largest all-reduce point above
        (Collective.ALL_REDUCE, 64 * MB),
    ],
    ids=lambda value: getattr(value, "value", None) or format_size(value),
)
def test_data_plane_ring_rows(kind, nbytes):
    prefix = "ring" if kind is Collective.ALL_REDUCE else f"ring/{kind.value}"
    _measure_data_plane(
        f"{prefix}/{format_size(nbytes)}", get_algorithm("ring"), kind, nbytes
    )


def test_no_metric_regression_vs_committed_baseline():
    """The in-process twin of the CI compare step (compare_bench.py)."""
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from compare_bench import committed_baseline, compare_throughput
    finally:
        sys.path.pop(0)

    baseline = committed_baseline(OUT_PATH)
    failures = compare_throughput(
        baseline, _RESULTS, sections=("synthesizer",), metric="programs_per_sec"
    ) + [
        failure
        for metric in ("candidates", "front")
        for failure in compare_throughput(
            baseline, _RESULTS, sections=("synthesizer",), metric=metric, exact=True
        )
    ] + compare_throughput(
        baseline, _RESULTS, sections=("speedup",), metric="speedup"
    ) + compare_throughput(
        baseline, _RESULTS, sections=("data_plane",), metric="gb_per_s"
    ) + [
        failure
        for metric in ("staging_mb", "records")
        for failure in compare_throughput(
            baseline, _RESULTS, sections=("data_plane",), metric=metric, exact=True
        )
    ]
    assert not failures, "\n".join(failures)
