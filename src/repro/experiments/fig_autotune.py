"""Autotune experiment — online tuner vs every static strategy choice.

For each message-size regime (a latency-bound small size and a
bandwidth-bound large size by default), every static candidate signature
the planner enumerates — ring / double-tree / halving-doubling crossed
with channel counts and ring orders — is measured on its own deployment.
Then one *tuned* deployment starts from the default strategy and lets
:class:`~repro.autotune.AutoTuner` retune live while the tenant issues a
stream of collectives.

Expected result: the tuner's converged (tail) mean matches the best static
choice in **every** regime, even though no single static choice wins both
— halving-doubling/tree win the small sizes, rings win the large — and
every retune goes through the §4.2 barrier with zero inconsistent
collectives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Dict, List, Sequence, Tuple

from ..autotune import StrategyPlanner
from ..cluster.specs import testbed_cluster
from ..collectives.types import Collective
from ..netsim.units import KB, MB, format_size
from .report import broken, print_table, require
from .setups import measure_static, measure_tuned, single_app_gpus

DEFAULT_SIZES = (64 * KB, 64 * MB)
#: The tuned tenant: one AllReduce communicator over the testbed's 8 GPUs.
SETUP = "8gpu"
KIND = Collective.ALL_REDUCE

#: All measurement deployments share one pinned datapath namespace:
#: connections of identical edges take identical ECMP draws in every
#: deployment and every strategy version, so tuned-vs-static compares
#: strategies, not path luck.
_DATAPATH_TAG = "autotune"

#: Full-scale run: tuned collectives per regime, collectives per static
#: candidate.
TUNE_ROUNDS = 24
STATIC_ITERS = 4


@dataclass
class RegimeResult:
    """Tuned-vs-static outcome for one message-size regime."""

    size: int
    static_means: Dict[str, float]
    tuned_tail_mean: float
    tuned_first: float
    retunes: int
    barrier_only: bool
    inconsistent: int

    @property
    def best_static(self) -> Tuple[str, float]:
        label = min(self.static_means, key=self.static_means.get)
        return label, self.static_means[label]

    @property
    def converged(self) -> bool:
        """Tuned tail within 5% of the best static mean."""
        _, best = self.best_static
        return self.tuned_tail_mean <= best * 1.05


@dataclass
class AutotuneResult:
    setup: str
    kind: Collective
    regimes: List[RegimeResult] = field(default_factory=list)


def run_autotune(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    static_iters: int = 4,
    tune_rounds: int = 24,
    tail: int = 4,
) -> AutotuneResult:
    """Tuned-vs-static comparison over the given size regimes."""
    result = AutotuneResult(setup=SETUP, kind=KIND)
    fabric = (testbed_cluster, partial(single_app_gpus, setup=SETUP))
    for size in sizes:
        tuned = measure_tuned(
            *fabric, KIND, size, rounds=tune_rounds, tail=tail, tag=_DATAPATH_TAG
        )
        regime = RegimeResult(
            size=size,
            static_means={},
            tuned_tail_mean=tuned.tail_mean,
            tuned_first=tuned.first,
            retunes=tuned.retunes,
            barrier_only=tuned.barrier_only,
            inconsistent=tuned.inconsistent,
        )
        cluster = testbed_cluster()
        gpus = single_app_gpus(cluster, SETUP)
        for scored in StrategyPlanner(cluster).plan(KIND, size, gpus):
            c = scored.candidate
            label = f"{c.algorithm}/ch{c.channels}/{c.ring_label}"
            regime.static_means[label] = measure_static(
                *fabric,
                KIND,
                size,
                algorithm=c.algorithm,
                channels=c.channels,
                ring=c.ring,
                iters=static_iters,
                tag=_DATAPATH_TAG,
            )
        result.regimes.append(regime)
    return result


def as_table(result: AutotuneResult) -> List[List[str]]:
    header = [
        "Size", "Best static", "Static (us)", "Tuned tail (us)",
        "First (us)", "Retunes", "Converged",
    ]
    rows = []
    for regime in result.regimes:
        label, best = regime.best_static
        rows.append(
            [
                format_size(regime.size),
                label,
                f"{best * 1e6:.1f}",
                f"{regime.tuned_tail_mean * 1e6:.1f}",
                f"{regime.tuned_first * 1e6:.1f}",
                str(regime.retunes),
                "yes" if regime.converged else "NO",
            ]
        )
    return [header] + rows


def as_json(result: AutotuneResult) -> Dict[str, object]:
    return {
        "setup": result.setup,
        "kind": result.kind.value,
        "regimes": [
            dict(asdict(r), best_static=list(r.best_static), converged=r.converged)
            for r in result.regimes
        ],
    }


def check(result: AutotuneResult) -> List[str]:
    """The autotune claims that ``result`` breaks."""
    small, large = result.regimes[0].best_static[0], result.regimes[-1].best_static[0]
    claims = {
        f"smallest and largest sizes have different static winners ({small}, {large})": (
            len(result.regimes) >= 2 and small != large
        ),
        f"a ring wins the largest size ({large})": large.startswith("ring"),
    }
    for r in result.regimes:
        size = format_size(r.size)
        claims[f"{size}: tuned tail {r.tuned_tail_mean * 1e6:.1f}us within 5% of the best "
               f"static after {r.retunes} > 0 retunes"] = r.converged and r.retunes > 0
        claims[f"{size}: barrier-only retunes, {r.inconsistent} inconsistent"] = (
            r.barrier_only and r.inconsistent == 0
        )
    return broken(claims)


def main() -> Dict[str, object]:
    result = run_autotune(tune_rounds=TUNE_ROUNDS, static_iters=STATIC_ITERS)
    table = as_table(result)
    print_table(
        table[0],
        table[1:],
        title=(
            "Autotune — online tuner vs best static strategy "
            f"({result.setup}, {result.kind})"
        ),
    )
    require(check(result))
    return {"autotune": as_json(result)}
