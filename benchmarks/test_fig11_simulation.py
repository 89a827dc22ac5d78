"""Benchmark: regenerate Figure 11 (768-GPU simulation, speedup CDFs).

Scaled for benchmark runtime: 25 jobs, 4 channels, one repetition per
placement.  Paper scale (50 jobs, 8 channels, 5 repetitions) runs via
``python -m repro.experiments fig11``.
"""

import statistics

from repro.experiments.fig11_simulation import run_fig11
from repro.experiments.report import cdf_points, format_table


def _summarize(outcome):
    rows = []
    stats = {}
    for solution in ("or", "or+ffa"):
        speedups = outcome.speedups(solution)
        cdf = cdf_points(speedups)
        stats[solution] = statistics.mean(speedups)
        rows.append(
            [
                solution.upper(),
                f"{statistics.mean(speedups):.2f}x",
                f"{statistics.median(speedups):.2f}x",
                f"{cdf[int(len(cdf) * 0.9) - 1][0]:.2f}x",
            ]
        )
    return rows, stats


def test_fig11_random_placement(benchmark, once, capsys):
    outcome = once(
        benchmark,
        run_fig11,
        placement="random",
        num_jobs=25,
        iterations=150,
        channels=4,
        seed=0,
    )
    rows, stats = _summarize(outcome)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["Solution", "Mean", "Median", "P90"],
                rows,
                title="Figure 11a — speedup vs random ring, random placement",
            )
        )
    # paper: OR 2.63x, OR+FFA 3.27x — FFA adds a lot under random placement
    assert stats["or"] > 1.1
    assert stats["or+ffa"] > stats["or"] * 1.15


def test_fig11_compact_placement(benchmark, once, capsys):
    outcome = once(
        benchmark,
        run_fig11,
        placement="compact",
        num_jobs=25,
        iterations=150,
        channels=4,
        seed=0,
    )
    rows, stats = _summarize(outcome)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["Solution", "Mean", "Median", "P90"],
                rows,
                title="Figure 11b — speedup vs random ring, compact placement",
            )
        )
    # paper: OR 3.28x, OR+FFA 3.43x — FFA adds little under compact placement
    assert stats["or"] > 2.0
    assert abs(stats["or+ffa"] - stats["or"]) / stats["or"] < 0.15
