"""Figure 10 — dynamic policy enforcement with staggered job arrivals.

The §6.4 timeline: tenant A (VGG-19) has the cluster to itself; B (GPT)
arrives at t1, C (GPT) at t2, all sharing under FFA; at t3 the
administrator prioritizes A with PFA; at t4 B is further prioritized over
C with TS.  The paper plots each tenant's training throughput normalized
to its FFA value and calls out: A -17% after B arrives, a further -14%
after C arrives, +13% for A after PFA, +18% for B after TS.

The controller re-runs its policies at each arrival ("the rescheduling
occurs only when a job joins or exits").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cluster.specs import testbed_cluster
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..core.policies.ts import compute_traffic_schedule
from ..workloads.generator import TrafficGenerator
from .fig09_qos import DEFAULT_PENALTY
from .report import broken, print_table, require, sparkline
from .setups import admit_tenant, qos_setup, qos_trace, trace_generator

#: ECMP seed of the replay's deployment.
ECMP_SEED = 337


@dataclass
class PhaseThroughput:
    """Mean iterations/s of one tenant within one timeline phase."""

    app_id: str
    phase: str
    throughput: float


@dataclass
class DynamicTimeline:
    """Everything Figure 10 plots."""

    events: Dict[str, float]
    phases: List[Tuple[str, float, float]]
    throughput: List[PhaseThroughput]
    ffa_baseline: Dict[str, float]
    generators: Dict[str, TrafficGenerator] = field(default_factory=dict)

    def normalized(self) -> Dict[Tuple[str, str], float]:
        return {
            (p.app_id, p.phase): p.throughput / self.ffa_baseline[p.app_id]
            for p in self.throughput
            if self.ffa_baseline.get(p.app_id)
        }


def run_fig10(
    *,
    t1: float = 4.0,
    t2: float = 8.0,
    t3: float = 12.0,
    t4: float = 16.0,
    end: float = 20.0,
) -> DynamicTimeline:
    """Replay the Figure 10 timeline once."""
    cluster = testbed_cluster(interference_penalty=DEFAULT_PENALTY)
    deployment = MccsDeployment(cluster, ecmp_seed=ECMP_SEED)
    manager = CentralManager(deployment)
    placements = {p.app_id: p for p in qos_setup()}
    generators: Dict[str, TrafficGenerator] = {}
    states: Dict[str, object] = {}

    def launch(app_id: str, iterations: int) -> None:
        states[app_id], client, comm = admit_tenant(
            manager, app_id, placements[app_id].resolve(cluster)
        )
        generator = trace_generator(client, comm, qos_trace(app_id, iterations), app_id)
        generators[app_id] = generator
        manager.apply_flow_policy("ffa")  # reschedule on every join
        generator.start(at=cluster.sim.now)

    # The arrival/priority schedule.
    launch("A", iterations=200)
    cluster.sim.schedule(t1, lambda: launch("B", iterations=200))
    cluster.sim.schedule(t2, lambda: launch("C", iterations=200))
    cluster.sim.schedule(
        t3,
        lambda: manager.apply_flow_policy(
            "pfa", high_priority_apps=["A"], reserved_routes={0}
        ),
    )

    def apply_ts() -> None:
        _, schedule = compute_traffic_schedule(
            deployment.trace(states["B"].comm_id), guard=0.0005
        )
        deployment.set_traffic_schedule("C", schedule)

    cluster.sim.schedule(t4, apply_ts)
    deployment.run(until=end)

    events = {"t1": t1, "t2": t2, "t3": t3, "t4": t4}
    phases = [
        ("A alone", 0.0, t1),
        ("A+B (FFA)", t1, t2),
        ("A+B+C (FFA)", t2, t3),
        ("PFA(A)", t3, t4),
        ("PFA+TS(B)", t4, end),
    ]
    throughput: List[PhaseThroughput] = []
    for app_id, generator in generators.items():
        timeline = generator.stats.throughput_timeline()
        for phase, start, stop in phases:
            window = [tp for t, tp in timeline if start <= t < stop]
            if window:
                throughput.append(
                    PhaseThroughput(app_id, phase, sum(window) / len(window))
                )
    return DynamicTimeline(
        events=events,
        phases=phases,
        throughput=throughput,
        # Normalize to each tenant's throughput under three-way FFA sharing.
        ffa_baseline={
            p.app_id: p.throughput for p in throughput if p.phase == "A+B+C (FFA)"
        },
        generators=generators,
    )


def check(timeline: DynamicTimeline) -> List[str]:
    """Figure 10's claims that ``timeline`` breaks.  In a short window C
    may complete no iteration under TS, the extreme form of a squeeze."""
    n = timeline.normalized()
    c_ts = n.get(("C", "PFA+TS(B)"))
    return broken({
        "B's arrival slows A": n[("A", "A alone")] > n[("A", "A+B (FFA)")],
        "C's arrival slows A, within 2%": n[("A", "A+B (FFA)")] >= 0.98 * n[("A", "A+B+C (FFA)")],
        "PFA lifts A": n[("A", "PFA(A)")] > n[("A", "A+B+C (FFA)")],
        "TS lifts B": n[("B", "PFA+TS(B)")] > n[("B", "PFA(A)")],
        "TS squeezes C": c_ts is None or c_ts < n[("C", "PFA(A)")],
    })


def main() -> Dict[str, object]:
    timeline = run_fig10()
    _print(timeline)
    require(check(timeline))
    return {}


def _print(timeline: DynamicTimeline) -> None:
    normalized = timeline.normalized()
    apps = sorted({p.app_id for p in timeline.throughput})
    rows = []
    for phase, start, stop in timeline.phases:
        rows.append(
            [f"{phase} [{start:.0f}-{stop:.0f}s]"]
            + [
                f"{normalized[(a, phase)]:.2f}" if (a, phase) in normalized else "-"
                for a in apps
            ]
        )
    print_table(
        ["Phase"] + apps,
        rows,
        title="Figure 10 — training throughput normalized to FFA (A+B+C phase)",
    )
    for app_id, generator in sorted(timeline.generators.items()):
        series = [tp for _, tp in generator.stats.throughput_timeline()]
        if series:
            print(f"  {app_id} throughput  |{sparkline(series)}|")
    print()
