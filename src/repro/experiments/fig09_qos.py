"""Figure 9 — training-workload JCT under scheduling and QoS policies.

Setup 3 of Figure 5b hosts three tenants (§6.4): A trains VGG-19 from
scratch on 4 GPUs (data parallel), B and C fine-tune GPT models on 2 GPUs
each (tensor parallel).  Job completion time is reported for four
solutions, normalized to FFA:

* **ECMP** — MCCS datapath but hash-based routing (high variance across
  trials, everyone slower);
* **FFA** — fair flow assignment (the normalization baseline);
* **PFA** — one inter-rack route dedicated to A (paper: A ~13% faster
  than FFA, 34% faster than ECMP);
* **PFA+TS** — additionally, C's traffic is time-windowed into B's idle
  cycles (paper: B ~16% faster than PFA, A unaffected).

The replay runs with the burst-interference extension enabled
(see ``FlowSimulator.interference_penalty``): sharing-induced degradation
beyond fluid fairness is exactly what PFA's isolation removes, and is
documented as a modelling substitution in DESIGN.md.  TS needs an offline
profile of B (the paper profiles applications offline, §5); we obtain it
from a profiling run under PFA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.specs import testbed_cluster
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..core.policies.ts import compute_traffic_schedule
from ..core.transport import WindowSchedule
from ..workloads.generator import TrafficGenerator
from .report import Stat, broken, print_table, require
from .setups import admit_tenant, qos_setup, qos_trace, trace_generator

SOLUTIONS = ("ecmp", "ffa", "pfa", "pfa+ts")

#: Workload sizes chosen so the three tenants finish on comparable
#: horizons (A trains from scratch; B and C fine-tune).
DEFAULT_ITERATIONS = {"A": 16, "B": 12, "C": 12}
DEFAULT_PENALTY = 0.30
#: Seconds TS leaves free on either side of B's profiled busy windows.
TS_GUARD = 0.0002
#: Full-scale sweep: trials per solution.
TRIALS = 4


@dataclass
class QosResult:
    """JCT of one tenant under one solution (seconds)."""

    solution: str
    app_id: str
    stat: Stat


def _run_once(
    solution: str,
    seed: int,
    *,
    iterations: Dict[str, int],
    penalty: float,
    ts_schedule: Optional[WindowSchedule] = None,
) -> Dict[str, float]:
    """One trial; returns per-app JCT."""
    cluster = testbed_cluster(interference_penalty=penalty)
    deployment = MccsDeployment(cluster, ecmp_seed=seed * 7919)
    manager = CentralManager(deployment)
    placements = qos_setup()
    generators: Dict[str, TrafficGenerator] = {}
    for placement in placements:
        # Pinned ECMP namespace: the measured orderings depend on the
        # per-trial ecmp_seed and the tenant, not on admission order.
        app_id = placement.app_id
        _, client, comm = admit_tenant(
            manager, app_id, placement.resolve(cluster), datapath_tag=f"fig09/{app_id}"
        )
        generators[app_id] = trace_generator(
            client, comm, qos_trace(app_id, iterations[app_id]), app_id
        )
    if solution in ("ecmp", "ffa"):
        manager.apply_flow_policy(solution)
    elif solution in ("pfa", "pfa+ts"):
        manager.apply_flow_policy(
            "pfa", high_priority_apps=["A"], reserved_routes={0}
        )
    else:
        raise ValueError(f"unknown solution {solution!r}")
    deployment.run()  # drain the reconfigurations before traffic starts
    if solution == "pfa+ts":
        if ts_schedule is None:
            raise ValueError("pfa+ts needs an offline TS schedule for B")
        # Prioritize B over C without affecting A: only C is gated.
        deployment.set_traffic_schedule("C", ts_schedule)
    for generator in generators.values():
        generator.start(at=cluster.sim.now)
    deployment.run()
    return {app: gen.stats.jct() for app, gen in generators.items()}


def profile_ts_schedule(
    seed: int,
    *,
    iterations: Dict[str, int],
    penalty: float,
) -> WindowSchedule:
    """Offline profiling pass for TS.

    The paper "manually profile[s] applications offline" (§5): the
    prioritized tenant (B) is profiled *unobstructed* — here, running
    under PFA with A present (A never shares B's route) but without C —
    and the resulting busy/idle windows are what TS installs for C.
    Because B's replay is strictly periodic when unobstructed, the
    projected phase stays valid in the measured runs.
    """
    cluster = testbed_cluster(interference_penalty=penalty)
    deployment = MccsDeployment(cluster, ecmp_seed=seed * 7919)
    manager = CentralManager(deployment)
    placements = [p for p in qos_setup() if p.app_id in ("A", "B")]
    states = {}
    for placement in placements:
        app_id = placement.app_id
        states[app_id], client, comm = admit_tenant(
            manager, app_id, placement.resolve(cluster), datapath_tag=f"fig09/{app_id}"
        )
        trace = qos_trace(app_id, max(iterations[app_id] // 4, 2))
        trace_generator(client, comm, trace, app_id).start()
    manager.apply_flow_policy("pfa", high_priority_apps=["A"], reserved_routes={0})
    deployment.run()
    _, schedule = compute_traffic_schedule(
        deployment.trace(states["B"].comm_id), guard=TS_GUARD
    )
    return schedule


def run_fig09(
    *,
    trials: int = 4,
    iterations: Optional[Dict[str, int]] = None,
) -> Tuple[List[QosResult], Dict[str, float]]:
    """Sweep the four solutions.

    Returns the per-(solution, app) JCT stats and the FFA mean JCTs used
    for normalization.
    """
    iterations = dict(iterations or DEFAULT_ITERATIONS)
    samples: Dict[Tuple[str, str], List[float]] = {}
    ts_schedule = profile_ts_schedule(0, iterations=iterations, penalty=DEFAULT_PENALTY)
    for solution in SOLUTIONS:
        for trial in range(trials):
            jcts = _run_once(
                solution,
                trial,
                iterations=iterations,
                penalty=DEFAULT_PENALTY,
                ts_schedule=ts_schedule if solution == "pfa+ts" else None,
            )
            for app_id, jct in jcts.items():
                samples.setdefault((solution, app_id), []).append(jct)
    results = [
        QosResult(solution=sol, app_id=app, stat=Stat.of(vals))
        for (sol, app), vals in sorted(samples.items())
    ]
    ffa_means = {
        app: Stat.of(samples[("ffa", app)]).mean for app in ("A", "B", "C")
    }
    return results, ffa_means


def check(result: Tuple[List[QosResult], Dict[str, float]]) -> List[str]:
    """Figure 9's claims that ``(results, ffa_means)`` breaks (JCT normalized to FFA)."""
    results, ffa_means = result
    jct = {(r.solution, r.app_id): r.stat.mean / ffa_means[r.app_id] for r in results}
    ecmp, pfa, ts = (
        {app: jct[(solution, app)] for app in "ABC"} for solution in ("ecmp", "pfa", "pfa+ts")
    )
    return broken({
        "ECMP slows A, B and C by over 5%": min(ecmp.values()) > 1.05,
        f"PFA speeds A to {pfa['A']:.3f} <= 1.02, below ECMP": (
            pfa["A"] <= 1.02 and pfa["A"] < ecmp["A"]
        ),
        f"PFA slows B ({pfa['B']:.3f})": pfa["B"] > 1.0,
        "PFA+TS speeds B and slows C over PFA": ts["B"] < pfa["B"] and ts["C"] > pfa["C"],
        "PFA+TS leaves A within 2%": abs(ts["A"] - pfa["A"]) <= 0.02 * pfa["A"],
    })


def main() -> Dict[str, object]:
    results, ffa_means = run_fig09(trials=TRIALS)
    by_solution: Dict[str, Dict[str, Stat]] = {}
    for r in results:
        by_solution.setdefault(r.solution, {})[r.app_id] = r.stat
    rows = []
    for solution in SOLUTIONS:
        stats = by_solution[solution]
        rows.append(
            [solution.upper()]
            + [
                f"{stats[a].mean / ffa_means[a]:.2f}"
                for a in ("A", "B", "C")
            ]
        )
    print_table(
        ["Solution", "VGG (A)", "GPT (B)", "GPT (C)"],
        rows,
        title="Figure 9 — normalized JCT (lower is better; FFA = 1.0)",
    )
    require(check((results, ffa_means)))
    return {}
