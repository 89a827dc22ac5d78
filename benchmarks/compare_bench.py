"""Guard committed BENCH_*.json metrics against regressions.

Compares freshly generated bench files against their committed baselines
(``git show HEAD:<file>`` by default) and fails if any higher-is-better
metric shared by both files regressed more than the tolerance, any
lower-is-better footprint grew more than its guard allows, or any exact
count differs.  Used two ways:

* as the CI compare step, after a bench job rewrites the files::

      python benchmarks/compare_bench.py

* imported by ``benchmarks/test_netsim_core.py`` and
  ``benchmarks/test_synth.py``, which run the same check in-process
  against the results they just measured.

Guarded files:

* ``BENCH_netsim.json`` — the engine's event counts
  (``rate_recomputations``, ``flows_completed``) in the ``event_loop``
  and ``scale_curve`` sections, and the causal tracer's per-flow work
  (``recorder_calls_per_flow``, ``segments_per_flow``) in
  ``telemetry_overhead``, and the solver memo hits, rate recomputations,
  heap pushes and completions of the ``steady_state`` collective loop,
  and the ``paths`` the route tables of ``path_tables`` hold, all
  compared with ``==``: the workloads are seeded, so the counts are exact
  on any host, which events/s and the traced/untraced wall ratio are not;
  and what the tracer's closed ring retains (``closed_ring_kib``, whoever
  allocated it), which may grow by at most 10 %, so per-flow objects
  cannot come back into closed traces;
* ``BENCH_synth.json`` — synthesizer search throughput
  (``programs_per_sec``), the measured synthesized-vs-builtin
  ``speedup`` on the WAN fabric, and the executor's ``data_plane``
  throughput (``gb_per_s`` per algorithm x size); the search's
  ``candidates`` and ``front`` counts are its output and compare with
  ``==``, and so do each ``data_plane`` row's ``staging_mb`` (the
  executor's scratch footprint, fixed by the compiled plan) and
  ``records`` (numpy calls per run, fixed by the plan, the size and the
  executor's tile);
* ``BENCH_gateway.json`` — service-gateway request throughput
  (``requests_per_sec`` in the ``gateway`` section; the fleet scenario is
  the repo benchmark's ``gateway_fleet`` workload);
* ``BENCH_control.json`` — the FFA churn script's ``passes``,
  ``demands_placed``, ``reconfigured_comms`` and ``assignment_digest``,
  compared with ``==``: they are the policy's output, not a timing.

Only keys present in *both* files are compared, so adding or renaming
benchmark points never trips the guard; a point that got slower does.
Fresh files that do not exist yet are skipped (each CI bench job only
regenerates its own file).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_netsim.json"
SYNTH_PATH = REPO_ROOT / "BENCH_synth.json"
GATEWAY_PATH = REPO_ROOT / "BENCH_gateway.json"
CONTROL_PATH = REPO_ROOT / "BENCH_control.json"

#: Sections of BENCH_netsim.json holding event-loop points.
THROUGHPUT_SECTIONS = ("event_loop", "scale_curve")

#: Allowed fractional slowdown before the compare step fails.  The bench
#: runners are noisy shared machines; 30% is the contract from the scale
#: work (genuine regressions from algorithmic changes are much larger).
TOLERANCE = 0.30


@dataclass(frozen=True)
class Guard:
    """One (file, sections, metric) triple to hold the line on;
    ``exact`` metrics are counts that must equal the baseline, and a
    ``growth`` metric is a lower-is-better footprint that may exceed the
    baseline by at most that fraction."""

    path: Path
    sections: Tuple[str, ...]
    metric: str
    exact: bool = False
    growth: Optional[float] = None


GUARDS = (
    Guard(BENCH_PATH, THROUGHPUT_SECTIONS, "rate_recomputations", exact=True),
    Guard(BENCH_PATH, THROUGHPUT_SECTIONS, "flows_completed", exact=True),
    Guard(BENCH_PATH, ("telemetry_overhead",), "recorder_calls_per_flow", exact=True),
    Guard(BENCH_PATH, ("telemetry_overhead",), "segments_per_flow", exact=True),
    Guard(BENCH_PATH, ("telemetry_overhead",), "closed_ring_kib", growth=0.10),
    *(
        Guard(BENCH_PATH, ("steady_state",), metric, exact=True)
        for metric in (
            "solver_memo_hits", "rate_recomputations", "heap_pushes",
            "flows_completed",
        )
    ),
    Guard(BENCH_PATH, ("path_tables",), "paths", exact=True),
    Guard(SYNTH_PATH, ("synthesizer",), "programs_per_sec"),
    Guard(SYNTH_PATH, ("synthesizer",), "candidates", exact=True),
    Guard(SYNTH_PATH, ("synthesizer",), "front", exact=True),
    Guard(SYNTH_PATH, ("speedup",), "speedup"),
    Guard(SYNTH_PATH, ("data_plane",), "gb_per_s"),
    Guard(SYNTH_PATH, ("data_plane",), "staging_mb", exact=True),
    Guard(SYNTH_PATH, ("data_plane",), "records", exact=True),
    Guard(GATEWAY_PATH, ("gateway",), "requests_per_sec"),
    *(
        Guard(CONTROL_PATH, ("ffa_churn",), metric, exact=True)
        for metric in (
            "passes", "demands_placed", "reconfigured_comms", "assignment_digest",
        )
    ),
)


def compare_throughput(
    baseline: Dict,
    fresh: Dict,
    tolerance: float = TOLERANCE,
    *,
    sections: Sequence[str] = THROUGHPUT_SECTIONS,
    metric: str = "events_per_sec",
    exact: bool = False,
    growth: Optional[float] = None,
) -> List[str]:
    """Return a list of human-readable regression descriptions (empty = ok)."""
    failures = []
    for section in sections:
        base_section = baseline.get(section) or {}
        fresh_section = fresh.get(section) or {}
        for key in sorted(set(base_section) & set(fresh_section)):
            old = (base_section[key] or {}).get(metric)
            new = (fresh_section[key] or {}).get(metric)
            if old is None or new is None:
                continue
            if exact:
                # A count that fell to 0 (memo hits, say) is a regression.
                if new != old:
                    failures.append(
                        f"{section}[{key}]: {metric} {new} vs committed {old}"
                    )
            elif growth is not None:
                if new > old * (1.0 + growth):
                    failures.append(
                        f"{section}[{key}]: {metric} {new:,.2f} vs committed "
                        f"{old:,.2f} (allowed +{100.0 * growth:.0f}%)"
                    )
            elif old and new < old * (1.0 - tolerance):
                failures.append(
                    f"{section}[{key}]: {metric} {new:,.2f} vs committed "
                    f"{old:,.2f} ({100.0 * (new / old - 1.0):+.0f}%, "
                    f"tolerance -{100.0 * tolerance:.0f}%)"
                )
    return failures


def committed_baseline(path: Path = BENCH_PATH) -> Dict:
    """The committed version of a bench file (empty dict if unborn)."""
    rel = path.relative_to(REPO_ROOT)
    proc = subprocess.run(
        ["git", "show", f"HEAD:{rel.as_posix()}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return {}
    return json.loads(proc.stdout)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE,
        help="allowed fractional metric slowdown",
    )
    args = parser.parse_args(argv)
    failures: List[str] = []
    compared = 0
    for guard in GUARDS:
        if not guard.path.exists():
            continue  # this bench job did not regenerate the file
        baseline = committed_baseline(guard.path)
        fresh = json.loads(guard.path.read_text())
        failures.extend(
            compare_throughput(
                baseline,
                fresh,
                args.tolerance,
                sections=guard.sections,
                metric=guard.metric,
                exact=guard.exact,
                growth=guard.growth,
            )
        )
        compared += sum(
            len(set(baseline.get(s) or {}) & set(fresh.get(s) or {}))
            for s in guard.sections
        )
    if failures:
        print("metric regressions vs committed bench baselines:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"no metric regressions ({compared} points compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
