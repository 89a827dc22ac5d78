"""Synthesis experiment — synthesized schedules vs the best built-in.

For each fabric (the single-region testbed and the two-region WAN
fabric), the synthesizer searches the placement
(:func:`repro.synth.synthesize_and_register`), and the best synthesized
schedule is raced against the best built-in planner candidate across a
sweep of message sizes — both measured on their own deployments through
the real flow data plane.  On the two-region fabric one *tuned*
deployment then starts from the default strategy and lets the
:class:`~repro.autotune.AutoTuner` discover the synthesized schedule
live.

Expected result: on the WAN fabric the two-level synthesized schedule
wins every bandwidth-bound size (it ships ~S per WAN direction where any
flat ring ships ~2S), the tuner adopts it through the §4.2
reconfiguration barrier with zero inconsistent collectives, and on the
single-region testbed the synthesized candidates at worst tie the
built-ins — the planner never regresses by offering them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..autotune import StrategyPlanner
from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster, multi_region_cluster, testbed_cluster
from ..collectives.ring import RingSchedule
from ..collectives.types import Collective
from ..core.algorithms import unregister_algorithm
from ..core.deployment import MccsDeployment
from ..core.strategy import CollectiveStrategy
from ..netsim.fabric import RegionSpec
from ..netsim.units import KB, MB, format_size
from ..synth import synthesize_and_register
from .report import print_table
from .setups import single_app_gpus

DEFAULT_SIZES = (64 * KB, 1 * MB, 16 * MB, 64 * MB)

#: One pinned datapath namespace so every deployment draws identical
#: ECMP paths: the sweep compares schedules, not path luck.
_DATAPATH_TAG = "synth"

#: Environment variable naming a JSON file to dump the results into.
OUT_ENV = "MCCS_SYNTH_OUT"

FabricFactory = Tuple[
    Callable[[], Cluster], Callable[[Cluster], List[GpuDevice]]
]

_FABRICS: Dict[str, FabricFactory] = {
    "testbed": (
        testbed_cluster,
        lambda cluster: list(single_app_gpus(cluster, "8gpu")),
    ),
    "two_region": (
        lambda: multi_region_cluster(RegionSpec()),
        lambda cluster: [h.gpus[0] for h in cluster.hosts],
    ),
}


@dataclass
class SizePoint:
    """Best synthesized vs best built-in at one message size."""

    size: int
    builtin_label: str
    builtin_seconds: float
    synth_label: str
    synth_seconds: float

    @property
    def synth_wins(self) -> bool:
        return self.synth_seconds < self.builtin_seconds

    @property
    def speedup(self) -> float:
        return self.builtin_seconds / self.synth_seconds


@dataclass
class TunedResult:
    """Outcome of the live tuner run on one fabric."""

    algorithm: str
    retunes: int
    barrier_only: bool
    inconsistent: int
    first: float
    tail_mean: float

    @property
    def adopted_synth(self) -> bool:
        return self.algorithm.startswith("synth:")


@dataclass
class FabricResult:
    fabric: str
    world: int
    synthesized: List[str] = field(default_factory=list)
    points: List[SizePoint] = field(default_factory=list)
    tuned: Optional[TunedResult] = None


def _measure(
    make_cluster: Callable[[], Cluster],
    pick_gpus: Callable[[Cluster], List[GpuDevice]],
    size: int,
    *,
    algorithm: str,
    channels: int,
    ring: Tuple[int, ...],
    iters: int,
) -> float:
    """Mean AllReduce duration under one fixed strategy."""
    cluster = make_cluster()
    gpus = pick_gpus(cluster)
    deployment = MccsDeployment(cluster)
    strategy = CollectiveStrategy(
        ring=RingSchedule(tuple(ring)), channels=channels, algorithm=algorithm
    )
    comm = deployment.create_communicator(
        "A", gpus, strategy=strategy, datapath_tag=_DATAPATH_TAG
    )
    client = deployment.connect("A")
    shim_comm = client.adopt_communicator(comm.comm_id)
    durations: List[float] = []
    for _ in range(iters):
        client.all_reduce(
            shim_comm,
            size,
            on_complete=lambda inst, now: durations.append(inst.duration()),
        )
        deployment.run()
    return sum(durations) / len(durations)


def _measure_tuned(
    make_cluster: Callable[[], Cluster],
    pick_gpus: Callable[[Cluster], List[GpuDevice]],
    size: int,
    *,
    rounds: int,
    tail: int,
) -> TunedResult:
    """Run the online tuner from the default strategy; report the tail."""
    cluster = make_cluster()
    gpus = pick_gpus(cluster)
    deployment = MccsDeployment(cluster)
    tuner = deployment.enable_autotuning()
    comm = deployment.create_communicator(
        "A", gpus, datapath_tag=_DATAPATH_TAG
    )
    client = deployment.connect("A")
    shim_comm = client.adopt_communicator(comm.comm_id)
    durations: List[float] = []
    for _ in range(rounds):
        client.all_reduce(
            shim_comm,
            size,
            on_complete=lambda inst, now: durations.append(inst.duration()),
        )
        deployment.run()
    sessions = deployment.reconfig.sessions
    return TunedResult(
        algorithm=comm.strategy.algorithm,
        retunes=tuner.retunes_applied(comm.comm_id),
        barrier_only=bool(sessions)
        and all(s.barrier_enabled for s in sessions),
        inconsistent=comm.inconsistent_collectives,
        first=durations[0],
        tail_mean=sum(durations[-tail:]) / tail,
    )


def _race(
    make_cluster: Callable[[], Cluster],
    pick_gpus: Callable[[Cluster], List[GpuDevice]],
    size: int,
    *,
    iters: int,
) -> SizePoint:
    """Measure the planner's best synthesized and best built-in pick."""
    cluster = make_cluster()
    gpus = pick_gpus(cluster)
    ranked = StrategyPlanner(cluster).plan(Collective.ALL_REDUCE, size, gpus)

    def best(synth: bool):
        for scored in ranked:
            if scored.candidate.algorithm.startswith("synth:") is synth:
                return scored.candidate
        return None

    builtin = best(synth=False)
    synth = best(synth=True)
    if synth is None:
        raise RuntimeError("no synthesized candidate in the plan")
    builtin_seconds = _measure(
        make_cluster, pick_gpus, size,
        algorithm=builtin.algorithm, channels=builtin.channels,
        ring=builtin.ring, iters=iters,
    )
    synth_seconds = _measure(
        make_cluster, pick_gpus, size,
        algorithm=synth.algorithm, channels=synth.channels,
        ring=synth.ring, iters=iters,
    )
    return SizePoint(
        size=size,
        builtin_label=f"{builtin.algorithm}/ch{builtin.channels}"
        f"/{builtin.ring_label}",
        builtin_seconds=builtin_seconds,
        synth_label=synth.algorithm,
        synth_seconds=synth_seconds,
    )


def run_synth(
    *,
    fabrics: Sequence[str] = ("testbed", "two_region"),
    sizes: Sequence[int] = DEFAULT_SIZES,
    static_iters: int = 2,
    tune_rounds: int = 30,
    tail: int = 4,
    tune_size: int = 16 * MB,
) -> List[FabricResult]:
    """Synthesized-vs-builtin sweep, plus the tuner adoption run."""
    results: List[FabricResult] = []
    for fabric in fabrics:
        make_cluster, pick_gpus = _FABRICS[fabric]
        cluster = make_cluster()
        gpus = pick_gpus(cluster)
        algos = synthesize_and_register(cluster, gpus)
        result = FabricResult(
            fabric=fabric,
            world=len(gpus),
            synthesized=[a.name for a in algos],
        )
        try:
            for size in sizes:
                result.points.append(
                    _race(make_cluster, pick_gpus, size, iters=static_iters)
                )
            if fabric == "two_region":
                result.tuned = _measure_tuned(
                    make_cluster,
                    pick_gpus,
                    tune_size,
                    rounds=tune_rounds,
                    tail=tail,
                )
        finally:
            for algo in algos:
                unregister_algorithm(algo.name)
        results.append(result)
    return results


def as_table(results: List[FabricResult]) -> List[List[str]]:
    header = [
        "Fabric", "Size", "Best built-in", "Built-in (us)",
        "Synthesized (us)", "Speedup", "Synth wins",
    ]
    rows = []
    for result in results:
        for point in result.points:
            rows.append(
                [
                    result.fabric,
                    format_size(point.size),
                    point.builtin_label,
                    f"{point.builtin_seconds * 1e6:.1f}",
                    f"{point.synth_seconds * 1e6:.1f}",
                    f"{point.speedup:.2f}x",
                    "yes" if point.synth_wins else "no",
                ]
            )
    return [header] + rows


def as_json(results: List[FabricResult]) -> Dict[str, object]:
    return {
        "fabrics": [
            {
                "fabric": r.fabric,
                "world": r.world,
                "synthesized": r.synthesized,
                "points": [
                    {
                        "size": p.size,
                        "builtin_label": p.builtin_label,
                        "builtin_seconds": p.builtin_seconds,
                        "synth_label": p.synth_label,
                        "synth_seconds": p.synth_seconds,
                        "speedup": p.speedup,
                        "synth_wins": p.synth_wins,
                    }
                    for p in r.points
                ],
                "tuned": None
                if r.tuned is None
                else {
                    "algorithm": r.tuned.algorithm,
                    "adopted_synth": r.tuned.adopted_synth,
                    "retunes": r.tuned.retunes,
                    "barrier_only": r.tuned.barrier_only,
                    "inconsistent": r.tuned.inconsistent,
                    "first": r.tuned.first,
                    "tail_mean": r.tuned.tail_mean,
                },
            }
            for r in results
        ],
    }


def main(tune_rounds: int = 30, static_iters: int = 2) -> None:
    results = run_synth(tune_rounds=tune_rounds, static_iters=static_iters)
    table = as_table(results)
    print_table(
        table[0],
        table[1:],
        title="Synthesis — synthesized schedules vs best built-in",
    )
    for result in results:
        if result.tuned is None:
            continue
        tuned = result.tuned
        print(
            f"tuner on {result.fabric}: {tuned.algorithm} "
            f"(adopted_synth={tuned.adopted_synth}, "
            f"retunes={tuned.retunes}, barrier_only={tuned.barrier_only}, "
            f"inconsistent={tuned.inconsistent}, "
            f"first={tuned.first * 1e6:.1f}us, "
            f"tail={tuned.tail_mean * 1e6:.1f}us)"
        )
    out_path = os.environ.get(OUT_ENV)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(as_json(results), fh, indent=2, sort_keys=True)
        print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
