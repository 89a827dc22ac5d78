"""Structural self-check of the benchmark harness.

Run with ``pytest benchmarks/e2e`` (about 20 s); tier-1 (``testpaths =
["tests"]``) does not collect it.  It checks shape only — every metric
and workload present once with a unit, shares summing to 1, zero
failures, simulated time repeating — and asserts no measured share or
speed, because these files are frozen for later PRs.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    """Two same-seed ``--quick`` runs; the first also traced."""
    tmp = tmp_path_factory.mktemp("e2e")
    reports = []
    for name, extra in (("a.json", ["--traced"]), ("b.json", [])):
        done = _run("--quick", "--seed", "0", "--out", str(tmp / name), *extra)
        assert done.returncode == 0, done.stderr
        reports.append(json.loads((tmp / name).read_text()))
    return reports


def test_benchmark_json_lists_what_the_harness_reports():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in manifest["workloads"]] == spec.WORKLOAD_NAMES
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        w.name: w.why for w in spec.WORKLOADS
    }
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": spec.DRIVER_BOUNDS[m.name]}
        for m in spec.END_TO_END if m.name in spec.DRIVER_BOUNDS
    ]
    for name, bound in spec.DRIVER_BOUNDS.items():
        assert 0 < bound <= spec.DRIVER_BOUNDS["setup_s"] <= 0.25, name
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    assert len(manifest["per_layer"]) <= 128


def test_compare_judges_by_the_bounds_the_issue_fixed():
    """BENCHMARK.json's bounds may have to be wider (the driver refuses a
    benchmark whose seeds spread more than its bound); ``compare``'s may not."""
    assert {m.name: m.bound for m in spec.END_TO_END} == {
        "ops_per_s": 0.10, "op_ms_p50": 0.10, "setup_s": 0.10, "peak_rss_mb": 0.05,
        "wall_s": 0.10, "sim_op_ms_p50": 0.0, "sim_op_ms_tail": 0.0, "failed_share": 0.0,
    }
    assert spec.SETUP_FLOOR_S == 0.1


def test_names_and_units_are_well_formed():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + spec.WORKLOAD_NAMES
    assert len(names) == len(set(names))
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("higher", "lower")
    for workload in spec.WORKLOADS:
        assert NAME.match(workload.name)
        assert len(workload.why) <= 200 and "\n" not in workload.why
    assert len(spec.LAYERS) == 26


def test_quick_run_reports_every_metric_once(quick_reports):
    traced, _ = quick_reports
    assert list(traced["workloads"]) == spec.WORKLOAD_NAMES
    for name, result in traced["workloads"].items():
        e2e = result["end_to_end"]
        for metric in spec.END_TO_END:
            assert isinstance(e2e[metric.name], (int, float)), (name, metric.name)
        assert e2e["failed_share"] == 0 and e2e["failed"] == 0
        assert e2e["attempted"] >= 1
        assert set(result["per_layer"]) == {m.name for m in spec.PER_LAYER}
        for metric, value in result["per_layer"].items():
            assert isinstance(value, (int, float)), (name, metric, "absent at this commit")
        shares = [result["per_layer"][f"{layer}.self_share"] for layer in spec.LAYERS]
        assert all(share >= 0 for share in shares)
        assert abs(sum(shares) - 1.0) <= 0.01
        assert result["spans"], "the traced run keeps its spans"
    env = traced["env"]
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "rounds", "pinned_env"):
        assert key in env


def test_same_seed_runs_agree_on_simulated_time(quick_reports):
    a, b = quick_reports
    for name in spec.WORKLOAD_NAMES:
        ra, rb = a["workloads"][name], b["workloads"][name]
        assert ra["sim_digest"] == rb["sim_digest"], name
        for metric in ("sim_op_ms_p50", "sim_op_ms_tail"):
            assert ra["end_to_end"][metric] == rb["end_to_end"][metric], (name, metric)


def test_driver_form_prints_one_result_line():
    end_to_end = [m.name for m in spec.END_TO_END if m.name in spec.DRIVER_BOUNDS]
    for trace, expected in ((0, end_to_end), (1, [m.name for m in spec.PER_LAYER])):
        done = _run(
            "--workload", "reconfig_churn", "--seed", "5",
            "--seconds", "1", "--trace", str(trace),
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == expected
        for value in line["metrics"].values():
            assert set(value) == {"value", "unit"}


def test_compare_calls_a_run_the_same_as_itself(quick_reports, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(quick_reports[0]))
    done = _run("compare", str(path), str(path))
    assert done.returncode == 0, done.stdout
    rows = [line for line in done.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(spec.WORKLOADS) * (len(spec.END_TO_END) + 1)
    assert all(row.split()[-1] == "same" for row in rows)


def test_a_moved_internal_reads_as_absent_not_as_a_crash():
    """The figures no public statistic carries are read through ``peek``;
    once a refactor moves their source they turn ``None`` and stay so."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Census, peek

    class Comm:  # a communicator after its data path and cache were renamed
        comm_id = 7
        inconsistent_collectives = 0

    class Deployment:
        def communicators(self):
            return [Comm()]

    assert peek(lambda: Comm().datapath) is None
    census = Census()
    census.sample(Deployment())
    assert census.connections is None and census.cache is None
    assert census.inconsistent == {7: 0}


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "small_allreduce",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
