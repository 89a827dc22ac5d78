"""Schedule synthesis: bounded search over chunk-level programs.

The synthesizer enumerates a parametric family of candidate programs for
a concrete placement — flat rings plus two-level hierarchical schedules
for every grouping the topology exposes (co-hosted ranks, same-leaf
ranks, same-region ranks), crossed with the planner's channel counts —
validates and compiles each candidate once, scores it with the one cost
function the planner scores built-ins with
(:func:`repro.autotune.cost.estimate_seconds`), prunes to a beam per
step count, and emits the pareto front over (latency-probe,
bandwidth-probe) cost.

Emitted candidates are registered as first-class algorithms gated on the
placement's topology fingerprint (:func:`synthesize_and_register`), so
the :class:`~repro.autotune.planner.StrategyPlanner` offers them next to
the built-ins and the :class:`~repro.autotune.tuner.AutoTuner` promotes
one only if it actually measures faster — through the usual §4.2
reconfiguration barrier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..autotune.cost import estimate_seconds, rank_regions, topology_fingerprint
from ..autotune.planner import CHANNEL_COUNTS
from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.generators import hierarchical_allreduce_program, ring_program
from ..collectives.ir import Program
from ..collectives.types import Collective
from ..core.algorithms import register_algorithm
from ..netsim.errors import ProgramValidationError
from ..netsim.units import KB, MB
from .lowering import SynthAlgorithm

#: Probe sizes for the pareto objectives: a latency-dominated point and a
#: bandwidth-dominated point (the paper's §6.2 sweep spans this range).
LATENCY_PROBE_BYTES = 64 * KB
BANDWIDTH_PROBE_BYTES = 64 * MB

#: Candidates kept per distinct step count before the pareto cut.
BEAM_WIDTH = 4

#: Front members :func:`synthesize_and_register` registers.
MAX_PROGRAMS = 4


@dataclass(frozen=True)
class ScoredProgram:
    """One validated candidate with its two probe costs."""

    algorithm: SynthAlgorithm
    latency_seconds: float
    bandwidth_seconds: float

    @property
    def program(self) -> Program:
        return self.algorithm.program

    def dominates(self, other: "ScoredProgram") -> bool:
        return (
            self.latency_seconds <= other.latency_seconds
            and self.bandwidth_seconds <= other.bandwidth_seconds
            and (
                self.latency_seconds < other.latency_seconds
                or self.bandwidth_seconds < other.bandwidth_seconds
            )
        )


def placement_groups(
    cluster: Cluster, gpus: Sequence[GpuDevice]
) -> Dict[str, List[List[int]]]:
    """Rank groupings the topology exposes, coarsest-meaningful first.

    Keys are grouping labels (``region`` / ``rack`` / ``host``); values
    partition ranks ``0..world-1``.  Groupings where every group is a
    single rank, or a single group swallows everyone, are dropped — the
    two-level schedule would degenerate to a flat ring.
    """
    keys: Dict[str, List[int]] = {
        "host": [gpu.host_id for gpu in gpus],
        "rack": [cluster.rack_of(gpu) for gpu in gpus],
    }
    regions = rank_regions(cluster, gpus)
    if regions is not None:
        keys["region"] = regions

    out: Dict[str, List[List[int]]] = {}
    for label, key_of_rank in keys.items():
        buckets: Dict[int, List[int]] = {}
        for rank, key in enumerate(key_of_rank):
            buckets.setdefault(key, []).append(rank)
        groups = [sorted(buckets[k]) for k in sorted(buckets)]
        if len(groups) < 2 or all(len(g) == 1 for g in groups):
            continue
        out[label] = groups
    return out


class Synthesizer:
    """Bounded search for chunk-level schedules on one placement.

    Args:
        cluster: Fabric + placement the costs are computed against.
        gpus: The communicator's GPUs, in rank order.

    Every candidate is named for the placement it was searched on (a
    digest of its topology fingerprint), so the programs of two
    placements with the same shape never share a registry name.
    """

    def __init__(self, cluster: Cluster, gpus: Sequence[GpuDevice]) -> None:
        self.cluster = cluster
        self.gpus = list(gpus)
        self.fingerprint = topology_fingerprint(cluster, self.gpus)
        self.candidates_generated = 0
        self.candidates_rejected = 0

    # -- candidate generation -------------------------------------------
    def _generate(self, kind: Collective) -> List[Program]:
        world = len(self.gpus)
        groupings = placement_groups(self.cluster, self.gpus)
        placement = hashlib.sha1(self.fingerprint.encode()).hexdigest()[:8]
        programs: List[Program] = []
        for channels in CHANNEL_COUNTS:
            programs.append(
                ring_program(
                    kind,
                    world,
                    channels=channels,
                    name=f"synth:ring.c{channels}/{kind.value}/w{world}@{placement}",
                )
            )
            if kind is not Collective.ALL_REDUCE:
                continue
            for label, groups in sorted(groupings.items()):
                sizes = {len(g) for g in groups}
                if len(sizes) != 1:
                    continue  # two-level schedule needs equal groups
                programs.append(
                    hierarchical_allreduce_program(
                        groups,
                        channels=channels,
                        name=(
                            f"synth:hier-{label}.c{channels}"
                            f"/{kind.value}/w{world}@{placement}"
                        ),
                    )
                )
        return programs

    # -- search ----------------------------------------------------------
    def search(self, kind: Collective) -> List[ScoredProgram]:
        """Validate, score, beam-prune and pareto-filter candidates.

        Returns the pareto front over (latency-probe cost, bandwidth-probe
        cost), best bandwidth cost first.
        """
        identity = tuple(range(len(self.gpus)))
        scored: List[ScoredProgram] = []
        for program in self._generate(kind):
            self.candidates_generated += 1
            try:
                algorithm = SynthAlgorithm(program, fingerprint=self.fingerprint)
            except ProgramValidationError:
                self.candidates_rejected += 1
                continue
            latency, bandwidth = (
                estimate_seconds(
                    self.cluster,
                    self.gpus,
                    kind,
                    probe,
                    algorithm=algorithm,
                    channels=program.channels,
                    ring=identity,
                )
                for probe in (LATENCY_PROBE_BYTES, BANDWIDTH_PROBE_BYTES)
            )
            scored.append(ScoredProgram(algorithm, latency, bandwidth))
        beamed = self._beam(scored)
        front = [
            s
            for s in beamed
            if not any(o.dominates(s) for o in beamed)
        ]
        return sorted(
            front, key=lambda s: (s.bandwidth_seconds, s.latency_seconds)
        )

    def _beam(self, scored: List[ScoredProgram]) -> List[ScoredProgram]:
        """Keep the :data:`BEAM_WIDTH` cheapest candidates per step count."""
        by_steps: Dict[int, List[ScoredProgram]] = {}
        for s in scored:
            by_steps.setdefault(s.program.num_steps, []).append(s)
        kept: List[ScoredProgram] = []
        for steps in sorted(by_steps):
            bucket = sorted(
                by_steps[steps],
                key=lambda s: (s.bandwidth_seconds, s.latency_seconds),
            )
            kept.extend(bucket[:BEAM_WIDTH])
        return kept


def synthesize_and_register(
    cluster: Cluster, gpus: Sequence[GpuDevice]
) -> List[SynthAlgorithm]:
    """Search this placement's AllReduce and register the pareto front.

    The registered algorithms are the scored ones — plans already
    compiled — and carry the placement's topology fingerprint, so only
    plans for an identically shaped placement will see them.  Searching
    the same placement again replaces its own programs.  Returns the
    registered algorithms, best predicted first.
    """
    front = Synthesizer(cluster, gpus).search(Collective.ALL_REDUCE)
    algorithms = [scored.algorithm for scored in front[:MAX_PROGRAMS]]
    for algorithm in algorithms:
        register_algorithm(algorithm, replace=True)
    return algorithms
