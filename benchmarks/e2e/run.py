#!/usr/bin/env python3
"""End-to-end benchmark of the MCCS reproduction: six workloads, two clocks.

    python3 benchmarks/e2e/run.py                      # all six, timed runs
    python3 benchmarks/e2e/run.py --traced --out e2e.json
    python3 benchmarks/e2e/run.py --workload large_allreduce --seed 1
    python3 benchmarks/e2e/run.py --quick              # smoke, < 20 s
    python3 benchmarks/e2e/run.py compare A.json B.json     # or A1.json,A2.json,... B1.json,...

    # the driver's form: one workload, one JSON line last on stdout
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds 12 --trace 0|1

*Wall* numbers are host time of this Python program, normalised to the
reference host's speed (``probe.py``); *sim* numbers are simulated time of
the modelled cluster and must repeat exactly for a seed.  Every workload
runs in fresh single-threaded subprocesses (one at a time, so ``nproc`` =
2 leaves a core for the neighbours) with the environment in
``spec.PINNED_ENV``; see README.md for the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (needs HERE on the path)

#: Fresh-process set-ups whose median is ``setup_s``.
SETUP_SAMPLES = 3
#: All the workers of one workload's run get this long between them; the
#: one running when it is up is killed and the run fails.
RUN_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def run_worker(
    workload: str, seed: int, extra: List[str], deadline: float
) -> Dict[str, object]:
    """One fresh worker process, killed at ``deadline`` (``time.monotonic()``);
    returns the JSON object it printed."""
    env = dict(os.environ, **spec.PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--t0", repr(started), *extra,
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchmarkError(f"{workload}: run exceeded {RUN_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(
            f"{workload}: worker exited {done.returncode} without a result\n{done.stderr}"
        ) from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: outputs or invariants wrong: {result.get('problems')}\n{done.stderr}"
        )
    return result


def rounds_for(workload: str, seconds: float) -> int:
    """The fixed round count of a run meant to last ``seconds`` at the
    baseline speed; at least the three a median needs."""
    return max(3, round(spec.workload(workload).rounds * seconds / spec.RUN_SECONDS))


def run_workload(
    workload: str,
    seed: int,
    *,
    seconds: float = spec.RUN_SECONDS,
    quick: bool = False,
    timed: bool = True,
    traced: bool = False,
) -> Dict[str, object]:
    """Timed and/or traced run of one workload, each in its own process."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    rounds = 1 if quick else rounds_for(workload, seconds)
    flags = ["--quick"] if quick else []
    out: Dict[str, object] = {"workload": workload, "seed": seed}
    if timed:
        result = run_worker(workload, seed, flags + ["--rounds", str(rounds)], deadline)
        e2e = result["end_to_end"]
        # setup_s is the median of fresh-process set-ups: this one and more.
        setups = [e2e.pop("setup")] + [
            run_worker(workload, seed, flags + ["--setup-only"], deadline)
            for _ in range(0 if quick else SETUP_SAMPLES - 1)
        ]
        for key in ("setup_s", "raw_setup_s", "setup_kernel_s"):
            e2e[key] = statistics.median(sample[key] for sample in setups)
        e2e["setup_s_samples"] = [sample["setup_s"] for sample in setups]
        out.update(
            end_to_end=e2e, sim_digest=result["sim_digest"], numpy=result["numpy"]
        )
    if traced:
        # A quarter of the untraced rounds feed the span and rate figures.
        few = 1 if quick else max(3, rounds // 4)
        result = run_worker(
            workload, seed, flags + ["--traced", "--rounds", str(few)], deadline
        )
        if timed and result["sim_digest"] != out["sim_digest"]:
            raise BenchmarkError(
                f"{workload}: two runs with seed {seed} disagree on simulated time "
                f"({out['sim_digest'][:12]} vs {result['sim_digest'][:12]})"
            )
        out.update(
            per_layer=result["per_layer"],
            spans=result["spans"],
            sim_digest=result["sim_digest"],
            traced_end_to_end=result["end_to_end"],
            numpy=result["numpy"],
        )
    return out


# ----------------------------------------------------------------------
# the driver's form
# ----------------------------------------------------------------------
#: Stands in the driver's line, which takes numbers only, for a per-layer
#: figure whose source is gone (``None`` in the full report).
ABSENT = -1.0


def driver_line(workload: str, seed: int, seconds: float, trace: int) -> str:
    if trace:
        result = run_workload(workload, seed, seconds=seconds, timed=False, traced=True)
        units = {m.name: m.unit for m in spec.PER_LAYER}
        values = result["per_layer"]
        counts = result["traced_end_to_end"]
    else:
        result = run_workload(workload, seed, seconds=seconds)
        units = {m.name: m.unit for m in spec.END_TO_END if m.name in spec.DRIVER_BOUNDS}
        values = counts = result["end_to_end"]
    return json.dumps(
        {
            "correct": True,  # run_worker raises on anything else
            "attempted": counts["attempted"],
            "failed": counts["failed"],
            "metrics": {
                name: {
                    "value": ABSENT if values[name] is None else values[name],
                    "unit": unit,
                }
                for name, unit in units.items()
            },
        }
    )


# ----------------------------------------------------------------------
# the full report
# ----------------------------------------------------------------------
def environment(seed: int, seconds: float, quick: bool) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "quick": quick,
        "setup_samples": 1 if quick else SETUP_SAMPLES,
        "seconds": seconds,
        "rounds": {
            w.name: 1 if quick else rounds_for(w.name, seconds) for w in spec.WORKLOADS
        },
        "pinned_env": spec.PINNED_ENV,
        "protocol": "one process at a time, one thread, no sockets",
    }


def print_report(result: Dict[str, object]) -> None:
    name = result["workload"]
    e2e = result.get("end_to_end")
    if e2e is not None:
        print(f"\n== {name} (seed {result['seed']}) ==")
        print(
            f"   {e2e['rounds']} rounds, {e2e['attempted']} ops, {e2e['failed']} failed, "
            f"{e2e['segments']} timing segments, sim_digest {result['sim_digest'][:16]}"
        )
        for metric in spec.END_TO_END:
            note = ""
            if metric.name == "ops_per_s":
                q1, q3 = e2e["ops_per_s_quartiles"]
                note = f"  [q1 {q1:.6g}, q3 {q3:.6g} over rounds]"
            elif metric.name == "op_ms_p50":
                q1, q3 = e2e["op_ms_quartiles"]
                note = f"  [q1 {q1:.6g}, q3 {q3:.6g} over segments]"
            elif metric.name == "sim_op_ms_tail":
                note = f"  [p{e2e['sim_tail_pct']:g} of {e2e['sim_samples']} ops]"
            elif metric.name == "setup_s":
                note = f"  [median of {len(e2e['setup_s_samples'])} fresh processes]"
            elif metric.name == "wall_s":
                note = (
                    f"  [host {e2e['host_slowdown']:.3g}x slower than the reference: raw "
                    f"{e2e['raw_ops_per_s']:.6g} 1/s, {e2e['raw_op_ms_p50']:.6g} ms, "
                    f"{e2e['raw_wall_s']:.6g} s, set-up {e2e['raw_setup_s']:.6g} s of which "
                    f"{e2e['setup_kernel_s']:.6g} s in the kernel]"
                )
            print(f"   {metric.name:<16}{e2e[metric.name]:>14.6g} {metric.unit:<6}{note}")
    layers = result.get("per_layer")
    if layers is not None:
        print(f"\n-- {name}: per-layer (one traced round) --")
        for layer in sorted(spec.LAYERS, key=lambda l: -layers[f"{l}.self_share"]):
            share = layers[f"{layer}.self_share"]
            if share >= 0.005:
                print(
                    f"   {layer:<20}self_share {share:6.3f} share   "
                    f"calls_per_op {layers[f'{layer}.calls_per_op']:>10.1f} count"
                )
        for metric in spec.PER_LAYER:
            if not metric.name.endswith((".self_share", ".calls_per_op")):
                value = layers[metric.name]
                shown = "absent" if value is None else f"{value:.6g}"
                print(f"   {metric.name:<36}{shown:>14} {metric.unit}")


def full_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else spec.WORKLOAD_NAMES
    report = {"env": environment(args.seed, args.seconds, args.quick), "workloads": {}}
    for name in names:
        result = run_workload(
            name, args.seed, seconds=args.seconds, quick=args.quick, traced=args.traced
        )
        report["env"]["numpy"] = result.pop("numpy")
        print_report(result)
        report["workloads"][name] = result
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _within_run_spread(e2e: Dict[str, object], metric: str) -> float:
    """What one run says about the run-to-run spread of a metric that is
    a median of its n samples (rounds of equal work, or fresh-process
    set-ups): 1.25 x their inter-quartile range / sqrt(n), over the
    median - the inter-quartile range a median of n independent samples
    has.  Slow phases of the host outlast a round, so the samples are not
    independent and this errs low; 0 where a run has a single value."""
    samples = e2e.get(
        {
            "ops_per_s": "per_round_ops_per_s",
            "op_ms_p50": "per_round_ops_per_s",
            "wall_s": "per_round_ops_per_s",
            "setup_s": "setup_s_samples",
        }.get(metric, ""),
        [],
    )
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return 1.25 * (q3 - q1) / (median * len(samples) ** 0.5)


def side(runs: List[Dict[str, object]], metric: str):
    """(values, median, spread) of one side's runs of one workload.

    With several runs the spread is the real thing, the inter-quartile
    range of their values over the median; with one it is estimated from
    that run's own rounds."""
    values = [run["end_to_end"][metric] for run in runs]
    median = statistics.median(values)
    if len(values) == 1:
        return values, median, _within_run_spread(runs[0]["end_to_end"], metric)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return values, median, (q3 - q1) / median if median else 0.0


def bound_of(metric: spec.Metric, parent: float) -> float:
    """The share of the parent's median the metric may worsen by."""
    if metric.name == "setup_s" and parent > 0:
        return max(metric.bound, spec.SETUP_FLOOR_S / parent)
    return metric.bound


def verdict(
    metric: spec.Metric, bound: float, va: float, sa: float, vb: float, sb: float
) -> str:
    """better / same / worse, or unresolved when either side's own
    spread is wider than the bound the difference is judged against."""
    if bound == 0.0:
        if va == vb:
            return "same"
        return "worse" if (vb > va) == (metric.better == "lower") else "better"
    if max(sa, sb) > bound:
        return "unresolved"
    worse_by = (vb - va) / va if metric.better == "lower" else (va - vb) / va
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(arg_a: str, arg_b: str) -> int:
    """One row per (workload, end-to-end metric); no combined score.

    Each argument is one report or a comma-separated list of reports of
    the same commit (the noise protocol asks for ten a side, run in
    alternation); ``B wins`` pairs them up in the order given."""
    a, b = (
        [json.loads(Path(path).read_text())["workloads"] for path in arg.split(",")]
        for arg in (arg_a, arg_b)
    )
    bad = 0
    print(
        f"{'workload':<16}{'metric':<16}{'A':>12}{'B':>12}{'unit':>6}"
        f"{'spread A':>10}{'spread B':>10}{'bound':>7}{'B wins':>8}  verdict"
    )
    for name in spec.WORKLOAD_NAMES:
        runs_a = [run[name] for run in a if "end_to_end" in run.get(name, {})]
        runs_b = [run[name] for run in b if "end_to_end" in run.get(name, {})]
        if not runs_a or not runs_b:
            continue
        for metric in spec.END_TO_END:
            values_a, va, sa = side(runs_a, metric.name)
            values_b, vb, sb = side(runs_b, metric.name)
            lower = metric.better == "lower"
            pairs = [(x, y) for x, y in zip(values_a, values_b) if x != y]
            wins = sum((y < x) == lower for x, y in pairs)
            bound = bound_of(metric, va)
            v = verdict(metric, bound, va, sa, vb, sb)
            bad += v in ("worse", "unresolved")
            print(
                f"{name:<16}{metric.name:<16}{va:>12.6g}{vb:>12.6g}{metric.unit:>6}"
                f"{sa:>10.3f}{sb:>10.3f}{bound:>7.2f}"
                f"{f'{wins}/{len(pairs)}':>8}  {v}"
            )
        digests_a = {(run["seed"], run["sim_digest"]) for run in runs_a}
        digests_b = {(run["seed"], run["sim_digest"]) for run in runs_b}
        same_seeds = {seed for seed, _ in digests_a} == {seed for seed, _ in digests_b}
        same = digests_a == digests_b
        bad += same_seeds and not same
        print(
            f"{name:<16}{'sim_digest':<16}{sorted(digests_a)[0][1][:10]:>12}"
            f"{sorted(digests_b)[0][1][:10]:>12}{'':>41}  "
            + ("same" if same else "differs" if same_seeds else "different seeds")
        )
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json[,A2.json...] B.json[,...]", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true", help="add the per-layer run")
    parser.add_argument("--quick", action="store_true", help="1 round, counts / 10")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument(
        "--seconds", type=float, default=spec.RUN_SECONDS,
        help="length of a timed run at the baseline speed; sets its round count",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver form: one workload, 0 = end-to-end line, 1 = per-layer line",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; nothing to benchmark", file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            if args.workload is None:
                parser.error("the driver form needs --workload")
            print(driver_line(args.workload, args.seed, args.seconds, args.trace))
            return 0
        return full_run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
