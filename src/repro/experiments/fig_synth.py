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

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..autotune import StrategyPlanner
from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster, multi_region_cluster, testbed_cluster
from ..collectives.types import Collective
from ..core.algorithms import unregister_algorithm
from ..netsim.fabric import RegionSpec
from ..netsim.units import KB, MB, format_size
from ..synth import synthesize_and_register
from .report import broken, print_table, require
from .setups import TunedResult, measure_static, measure_tuned, single_app_gpus

DEFAULT_SIZES = (64 * KB, 1 * MB, 16 * MB, 64 * MB)
#: Size of the two-region tuner adoption run's AllReduce.
TUNE_SIZE = 16 * MB

#: One pinned datapath namespace so every deployment draws identical
#: ECMP paths: the sweep compares schedules, not path luck.
_DATAPATH_TAG = "synth"

#: Full-scale run: tuned collectives on the two-region fabric,
#: collectives per raced strategy.
TUNE_ROUNDS = 30
STATIC_ITERS = 2

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
class FabricResult:
    fabric: str
    world: int
    synthesized: List[str] = field(default_factory=list)
    points: List[SizePoint] = field(default_factory=list)
    tuned: Optional[TunedResult] = None


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
    builtin_seconds, synth_seconds = (
        measure_static(
            make_cluster, pick_gpus, Collective.ALL_REDUCE, size,
            algorithm=c.algorithm, channels=c.channels, ring=c.ring,
            iters=iters, tag=_DATAPATH_TAG,
        )
        for c in (builtin, synth)
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
                result.tuned = measure_tuned(
                    make_cluster,
                    pick_gpus,
                    Collective.ALL_REDUCE,
                    TUNE_SIZE,
                    rounds=tune_rounds,
                    tail=tail,
                    tag=_DATAPATH_TAG,
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
            dict(
                asdict(r),
                points=[
                    dict(asdict(p), speedup=p.speedup, synth_wins=p.synth_wins)
                    for p in r.points
                ],
                tuned=None
                if r.tuned is None
                else dict(asdict(r.tuned), adopted_synth=r.tuned.adopted_synth),
            )
            for r in results
        ],
    }


def check(results: List[FabricResult]) -> List[str]:
    """The synthesis claims that ``results`` break, on the two-region fabric."""
    two_region = next(r for r in results if r.fabric == "two_region")
    point, tuned = two_region.points[-1], two_region.tuned
    return broken({
        f"{format_size(point.size)}: {point.synth_label} {point.speedup:.2f}x > 1.5x over "
        f"{point.builtin_label}": (
            point.synth_label.startswith("synth:") and point.synth_wins and point.speedup > 1.5
        ),
        f"the tuner adopts a synthesized schedule ({tuned.algorithm})": (
            tuned.adopted_synth and tuned.retunes > 0
        ),
        f"barrier-only retunes, {tuned.inconsistent} inconsistent": (
            tuned.barrier_only and tuned.inconsistent == 0
        ),
        "the tuned tail beats the first collective": tuned.tail_mean < tuned.first,
    })


def main() -> Dict[str, object]:
    results = run_synth(tune_rounds=TUNE_ROUNDS, static_iters=STATIC_ITERS)
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
    require(check(results))
    return {"synth": as_json(results)}
