"""Figure 6 — single-application AllGather/AllReduce algorithm bandwidth.

Four systems on the Figure 5a testbed, 32 KB to 512 MB (output-buffer
sizes), 4-GPU and 8-GPU setups:

* **NCCL** — rank order as a topology-blind tenant would assign it
  (rack-alternating host enumeration), ECMP routing;
* **NCCL(OR)** — NCCL manually fed the locality-optimal ring (the paper's
  overhead baseline), ECMP routing;
* **MCCS(-FA)** — MCCS with the locality ring but no flow assignment
  (ECMP), isolating MCCS's datapath latency overhead;
* **MCCS** — the full system: locality ring + fair flow assignment.

Expected shape (§6.2): MCCS(-FA) loses clearly to NCCL(OR) below 8 MB
(the 50-80 us shim->service datapath) and converges above; NCCL(OR) beats
NCCL by ~1.5-1.8x at 512 MB; MCCS beats everything at large sizes (up to
~2.4x over NCCL on 8 GPUs) because FFA removes ECMP collisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..cluster.specs import testbed_cluster
from ..collectives.bandwidth import algorithm_bandwidth
from ..collectives.types import Collective
from ..netsim.units import KB, MB, format_size, to_gBps
from .report import Stat, broken, print_table, require
from .setups import single_app_gpus, system_issuers

SYSTEMS = ("nccl", "nccl_or", "mccs_nofa", "mccs")
SYSTEM_LABELS = {
    "nccl": "NCCL",
    "nccl_or": "NCCL(OR)",
    "mccs_nofa": "MCCS(-FA)",
    "mccs": "MCCS",
}
PAPER_SIZES = (
    32 * KB,
    128 * KB,
    512 * KB,
    2 * MB,
    8 * MB,
    32 * MB,
    128 * MB,
    512 * MB,
)
#: Full-scale sweep: fresh deployments per cell, collectives per size.
TRIALS = 5
ITERS = 3


@dataclass
class SingleAppResult:
    """Mean algorithm bandwidth (GB/s) per (setup, kind, system, size)."""

    setup: str
    kind: Collective
    system: str
    size: int
    stat: Stat


def run_fig06(
    *,
    setups: Sequence[str] = ("4gpu", "8gpu"),
    kinds: Sequence[Collective] = (Collective.ALL_GATHER, Collective.ALL_REDUCE),
    sizes: Sequence[int] = PAPER_SIZES,
    systems: Sequence[str] = SYSTEMS,
    trials: int = 5,
    iters: int = 3,
) -> List[SingleAppResult]:
    """Sweep the Figure 6 grid; returns one result row per cell."""
    results: List[SingleAppResult] = []
    for setup in setups:
        for kind in kinds:
            for system in systems:
                samples: Dict[int, List[float]] = {size: [] for size in sizes}
                for trial in range(trials):
                    cluster = testbed_cluster()
                    issue = system_issuers(
                        system,
                        cluster,
                        {"A": single_app_gpus(cluster, setup)},
                        ecmp_seed=trial * 1009 + 17,
                        tag_nccl=False,
                    )["A"]
                    for size in sizes:
                        for _ in range(iters):
                            durations: List[float] = []
                            issue(kind, size, durations.append)
                            cluster.sim.run()
                            samples[size].append(
                                to_gBps(algorithm_bandwidth(size, durations[0]))
                            )
                for size in sizes:
                    results.append(
                        SingleAppResult(
                            setup=setup,
                            kind=kind,
                            system=system,
                            size=size,
                            stat=Stat.of(samples[size]),
                        )
                    )
    return results


def as_tables(results: Sequence[SingleAppResult]) -> Dict[Tuple[str, Collective], List[List[str]]]:
    """Group rows into one table per (setup, kind) panel."""
    panels: Dict[Tuple[str, Collective], Dict[int, Dict[str, Stat]]] = {}
    for r in results:
        panels.setdefault((r.setup, r.kind), {}).setdefault(r.size, {})[r.system] = r.stat
    tables = {}
    for key, by_size in panels.items():
        systems = [s for s in SYSTEMS if any(s in row for row in by_size.values())]
        rows = []
        for size in sorted(by_size):
            row = [format_size(size)]
            for system in systems:
                stat = by_size[size].get(system)
                row.append(f"{stat.mean:.2f}" if stat else "-")
            rows.append(row)
        tables[key] = [["Size"] + [SYSTEM_LABELS[s] for s in systems]] + rows
    return tables


def check(results: Sequence[SingleAppResult]) -> List[str]:
    """Figure 6's claims that ``results``' AllReduce panels break.  FFA
    has no ECMP collision to remove on 4 GPUs, one per host."""
    panels: Dict[str, Dict[int, Dict[str, float]]] = {}
    for r in results:
        if r.kind is Collective.ALL_REDUCE:
            panels.setdefault(r.setup, {}).setdefault(r.size, {})[r.system] = r.stat.mean
    claims = {}
    for setup, by_size in panels.items():
        small, big, size = by_size[512 * KB], by_size[max(by_size)], format_size(max(by_size))
        claims[f"{setup}: MCCS(-FA) < NCCL(OR) at 512KB"] = small["mccs_nofa"] < small["nccl_or"]
        if setup == "4gpu":
            claims[f"4gpu: MCCS(-FA) >= 95% of NCCL(OR) at {size}"] = (
                big["mccs_nofa"] >= 0.95 * big["nccl_or"]
            )
        else:
            claims[f"{setup}: MCCS > MCCS(-FA), NCCL(OR) > NCCL at {size}"] = (
                big["mccs"] > big["mccs_nofa"] and big["mccs"] > big["nccl_or"] > big["nccl"]
            )
            ratio = big["mccs"] / big["nccl"]
            claims[f"{setup}: MCCS {ratio:.2f}x NCCL at {size}, > 2x"] = ratio > 2.0
    return broken(claims)


def main() -> Dict[str, object]:
    results = run_fig06(trials=TRIALS, iters=ITERS)
    for (setup, kind), table in sorted(
        as_tables(results).items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        print_table(
            table[0],
            table[1:],
            title=f"Figure 6 — {kind} algorithm bandwidth (GB/s), {setup} setup",
        )
    require(check(results))
    return {}
