"""Figure 8 — multi-application bus bandwidth under four placements.

All tenants of a setup run 128 MB AllReduce loops concurrently; we report
each tenant's *bus bandwidth* (nccl-tests normalization — independent of
algorithm and participant count, so it reflects each tenant's share of
the hardware bottleneck).  Four systems, as in Figure 6, with MCCS(-FFA)
being the ablation without fair flow assignment.

Expected shape (§6.3): MCCS achieves both the highest aggregate bus
bandwidth and fairness — equal splits in setups 1, 2 and 4, and a 2:1:1
split in setup 3 where tenant A owns twice the NICs per host; the ECMP
variants are unfair (the paper measures 1.7:1 instead of 2:1 in setup 3)
and lose aggregate bandwidth to flow collisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..cluster.specs import testbed_cluster
from ..collectives.bandwidth import busbw_factor
from ..collectives.types import Collective
from ..netsim.units import MB
from .report import Stat, broken, print_table, require
from .setups import TenantPlacement, multi_app_setups, system_issuers

SYSTEMS = ("nccl", "nccl_or", "mccs_noffa", "mccs")
SYSTEM_LABELS = {
    "nccl": "NCCL",
    "nccl_or": "NCCL(OR)",
    "mccs_noffa": "MCCS(-FFA)",
    "mccs": "MCCS",
}
#: Full-scale sweep: fresh deployments per (setup, system) cell.
TRIALS = 5


@dataclass
class MultiAppResult:
    """Bus bandwidth (GB/s) of one tenant under one system and setup."""

    setup: str
    system: str
    app_id: str
    stat: Stat


def _run_once(
    setup_name: str,
    placements: Sequence[TenantPlacement],
    system: str,
    seed: int,
    *,
    op_bytes: int,
    duration: float,
    warmup: float,
) -> Dict[str, float]:
    """One trial: all tenants loop concurrently; mean busbw per tenant."""
    cluster = testbed_cluster()
    samples: Dict[str, List[float]] = {p.app_id: [] for p in placements}
    issuers = system_issuers(
        system,
        cluster,
        {p.app_id: p.resolve(cluster) for p in placements},
        ecmp_seed=seed * 131,
        tag_nccl=True,
    )

    def make_chain(app_id: str, world: int, issue) -> Callable[[float], None]:
        factor = busbw_factor(Collective.ALL_REDUCE, world)

        def chain(duration_s: float) -> None:
            now = cluster.sim.now
            if now >= warmup:
                samples[app_id].append(factor * op_bytes / duration_s / 1e9)
            if now < duration:
                issue(Collective.ALL_REDUCE, op_bytes, chain)

        return chain

    for placement in placements:
        issue = issuers[placement.app_id]
        chain = make_chain(placement.app_id, len(placement.gpus), issue)
        issue(Collective.ALL_REDUCE, op_bytes, chain)
    cluster.sim.run(until=duration + 2.0)
    return {
        app_id: sum(vals) / len(vals) for app_id, vals in samples.items() if vals
    }


def run_fig08(
    *,
    setups: Sequence[str] = ("setup1", "setup2", "setup3", "setup4"),
    trials: int = 5,
    op_bytes: int = 128 * MB,
    duration: float = 2.0,
    warmup: float = 0.3,
) -> List[MultiAppResult]:
    """Sweep the Figure 8 grid."""
    all_setups = multi_app_setups()
    results: List[MultiAppResult] = []
    for setup_name in setups:
        placements = all_setups[setup_name]
        for system in SYSTEMS:
            per_app: Dict[str, List[float]] = {p.app_id: [] for p in placements}
            for trial in range(trials):
                means = _run_once(
                    setup_name,
                    placements,
                    system,
                    trial,
                    op_bytes=op_bytes,
                    duration=duration,
                    warmup=warmup,
                )
                for app_id, value in means.items():
                    per_app[app_id].append(value)
            for placement in placements:
                results.append(
                    MultiAppResult(
                        setup=setup_name,
                        system=system,
                        app_id=placement.app_id,
                        stat=Stat.of(per_app[placement.app_id]),
                    )
                )
    return results


def check(results: Sequence[MultiAppResult]) -> List[str]:
    """Figure 8's claims that ``results`` breaks (NCCL(OR) ties MCCS's
    aggregate in NIC-bound setups, less MCCS's datapath latency)."""
    means: Dict[str, Dict[str, Dict[str, float]]] = {}
    for r in results:
        means.setdefault(r.setup, {}).setdefault(r.system, {})[r.app_id] = r.stat.mean
    claims = {}
    for setup, by_system in means.items():
        total = {system: sum(apps.values()) for system, apps in by_system.items()}
        claims[f"{setup}: MCCS aggregate {total['mccs']:.2f} above NCCL, within 1% of the best"] = (
            total["mccs"] >= 0.99 * max(total.values()) and total["mccs"] > total["nccl"]
        )
    a, b = means["setup1"]["mccs"]["A"], means["setup1"]["mccs"]["B"]
    claims[f"setup1: MCCS splits A {a:.2f} / B {b:.2f} within 5%"] = abs(a - b) <= 0.05 * b
    a, b, c = (means["setup3"]["mccs"][app] for app in "ABC")
    claims[f"setup3: MCCS splits A:B:C {a:.2f}:{b:.2f}:{c:.2f} as 2:1:1"] = (
        1.8 <= a / b <= 2.2 and abs(b - c) <= 0.05 * c
    )
    return broken(claims)


def main() -> Dict[str, object]:
    results = run_fig08(trials=TRIALS)
    by_setup: Dict[str, Dict[str, Dict[str, Stat]]] = {}
    for r in results:
        by_setup.setdefault(r.setup, {}).setdefault(r.system, {})[r.app_id] = r.stat
    for setup_name in sorted(by_setup):
        apps = sorted({a for sys_rows in by_setup[setup_name].values() for a in sys_rows})
        rows = []
        for system in SYSTEMS:
            if system not in by_setup[setup_name]:
                continue
            stats = by_setup[setup_name][system]
            aggregate = sum(s.mean for s in stats.values())
            rows.append(
                [SYSTEM_LABELS[system]]
                + [f"{stats[a].mean:.2f}" if a in stats else "-" for a in apps]
                + [f"{aggregate:.2f}"]
            )
        print_table(
            ["System"] + [f"App {a}" for a in apps] + ["Aggregate"],
            rows,
            title=f"Figure 8 — 128MB AllReduce bus bandwidth (GB/s), {setup_name}",
        )
    require(check(results))
    return {}
