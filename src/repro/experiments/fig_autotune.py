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

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..autotune import StrategyPlanner
from ..cluster.specs import testbed_cluster
from ..collectives.ring import RingSchedule
from ..collectives.types import Collective
from ..core.deployment import MccsDeployment
from ..core.strategy import CollectiveStrategy
from ..netsim.units import KB, MB, format_size
from .report import print_table
from .setups import single_app_gpus

DEFAULT_SIZES = (64 * KB, 64 * MB)

#: All measurement deployments share one pinned datapath namespace:
#: connections of identical edges take identical ECMP draws in every
#: process and every strategy version, so tuned-vs-static compares
#: strategies, not path luck.
_DATAPATH_TAG = "autotune"

#: Environment variable naming a JSON file to dump the results into.
OUT_ENV = "MCCS_AUTOTUNE_OUT"


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


def _signature_label(algorithm: str, channels: int, ring_label: str) -> str:
    return f"{algorithm}/ch{channels}/{ring_label}"


def _static_signatures(
    size: int, setup: str, kind: Collective
) -> List[Tuple[str, str, int, Tuple[int, ...]]]:
    """(label, algorithm, channels, ring) for every planner candidate."""
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, setup)
    planner = StrategyPlanner(cluster)
    out = []
    for scored in planner.plan(kind, size, gpus):
        c = scored.candidate
        out.append(
            (
                _signature_label(c.algorithm, c.channels, c.ring_label),
                c.algorithm,
                c.channels,
                c.ring,
            )
        )
    return out


def _measure_static(
    setup: str,
    kind: Collective,
    size: int,
    *,
    algorithm: str,
    channels: int,
    ring: Tuple[int, ...],
    iters: int,
) -> float:
    """Mean duration of ``iters`` collectives under one fixed strategy."""
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, setup)
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
    issue = {
        Collective.ALL_REDUCE: client.all_reduce,
        Collective.ALL_GATHER: client.all_gather,
    }[kind]
    for _ in range(iters):
        issue(
            shim_comm,
            size,
            on_complete=lambda inst, now: durations.append(inst.duration()),
        )
        deployment.run()
    return sum(durations) / len(durations)


def _measure_tuned(
    setup: str,
    kind: Collective,
    size: int,
    *,
    rounds: int,
    tail: int,
) -> RegimeResult:
    """Run the online tuner from the default strategy; report the tail."""
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, setup)
    deployment = MccsDeployment(cluster)
    tuner = deployment.enable_autotuning()
    comm = deployment.create_communicator(
        "A", gpus, datapath_tag=_DATAPATH_TAG
    )
    client = deployment.connect("A")
    shim_comm = client.adopt_communicator(comm.comm_id)
    durations: List[float] = []
    issue = {
        Collective.ALL_REDUCE: client.all_reduce,
        Collective.ALL_GATHER: client.all_gather,
    }[kind]
    for _ in range(rounds):
        issue(
            shim_comm,
            size,
            on_complete=lambda inst, now: durations.append(inst.duration()),
        )
        deployment.run()
    sessions = deployment.reconfig.sessions
    return RegimeResult(
        size=size,
        static_means={},  # filled by the caller
        tuned_tail_mean=sum(durations[-tail:]) / tail,
        tuned_first=durations[0],
        retunes=tuner.retunes_applied(comm.comm_id),
        barrier_only=bool(sessions)
        and all(s.barrier_enabled for s in sessions),
        inconsistent=comm.inconsistent_collectives,
    )


def run_autotune(
    *,
    setup: str = "8gpu",
    kind: Collective = Collective.ALL_REDUCE,
    sizes: Sequence[int] = DEFAULT_SIZES,
    static_iters: int = 4,
    tune_rounds: int = 24,
    tail: int = 4,
) -> AutotuneResult:
    """Tuned-vs-static comparison over the given size regimes."""
    result = AutotuneResult(setup=setup, kind=kind)
    for size in sizes:
        regime = _measure_tuned(
            setup, kind, size, rounds=tune_rounds, tail=tail
        )
        for label, algorithm, channels, ring in _static_signatures(
            size, setup, kind
        ):
            regime.static_means[label] = _measure_static(
                setup,
                kind,
                size,
                algorithm=algorithm,
                channels=channels,
                ring=ring,
                iters=static_iters,
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
            {
                "size": r.size,
                "static_means": r.static_means,
                "best_static": list(r.best_static),
                "tuned_tail_mean": r.tuned_tail_mean,
                "tuned_first": r.tuned_first,
                "retunes": r.retunes,
                "barrier_only": r.barrier_only,
                "inconsistent": r.inconsistent,
                "converged": r.converged,
            }
            for r in result.regimes
        ],
    }


def main(tune_rounds: int = 24, static_iters: int = 4) -> None:
    result = run_autotune(tune_rounds=tune_rounds, static_iters=static_iters)
    table = as_table(result)
    print_table(
        table[0],
        table[1:],
        title=(
            "Autotune — online tuner vs best static strategy "
            f"({result.setup}, {result.kind})"
        ),
    )
    out_path = os.environ.get(OUT_ENV)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(as_json(result), fh, indent=2, sort_keys=True)
        print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
