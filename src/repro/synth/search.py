"""Schedule synthesis: bounded search over chunk-level programs.

The synthesizer enumerates a parametric family of candidate programs for
a concrete placement — flat rings plus two-level hierarchical schedules
for every grouping the topology exposes (co-hosted ranks, same-leaf
ranks, same-region ranks), crossed with channel counts and NCCL-style
protocol variants — validates each candidate, scores it with the same
alpha-beta + bottleneck cost model the planner uses
(:mod:`repro.autotune.cost`), prunes to a beam per step count, and emits
the pareto front over (latency-probe, bandwidth-probe) cost.

Emitted candidates are registered as first-class algorithms gated on the
placement's topology fingerprint (:func:`synthesize_and_register`), so
the :class:`~repro.autotune.planner.StrategyPlanner` offers them next to
the built-ins and the :class:`~repro.autotune.tuner.AutoTuner` promotes
one only if it actually measures faster — through the usual §4.2
reconfiguration barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel, MCCS_LATENCY
from ..collectives.types import Collective
from ..netsim.errors import ProgramValidationError
from ..netsim.units import KB, MB
from ..collectives.generators import hierarchical_allreduce_program, ring_program
from ..collectives.ir import Program, Protocol
from .lowering import SynthAlgorithm, register_program
from .validate import validate_program

#: Probe sizes for the pareto objectives: a latency-dominated point and a
#: bandwidth-dominated point (the paper's §6.2 sweep spans this range).
LATENCY_PROBE_BYTES = 64 * KB
BANDWIDTH_PROBE_BYTES = 64 * MB


@dataclass(frozen=True)
class ScoredProgram:
    """One validated candidate with its two probe costs."""

    program: Program
    latency_seconds: float
    bandwidth_seconds: float

    def dominates(self, other: "ScoredProgram") -> bool:
        return (
            self.latency_seconds <= other.latency_seconds
            and self.bandwidth_seconds <= other.bandwidth_seconds
            and (
                self.latency_seconds < other.latency_seconds
                or self.bandwidth_seconds < other.bandwidth_seconds
            )
        )


def estimate_program_seconds(
    cluster: Cluster,
    gpus: Sequence[GpuDevice],
    program: Program,
    out_bytes: float,
    *,
    latency: LatencyModel = MCCS_LATENCY,
) -> float:
    """Cost-model completion time of ``program`` on this placement.

    Uses the same primitives as :func:`repro.autotune.cost.estimate_seconds`
    (per-pair traffic -> bottleneck resource -> pipelined closed form,
    plus the WAN RTT term), with the program's own step and chunk counts.
    """
    from ..autotune.cost import bottleneck_seconds, pipelined_seconds

    traffic = program.pair_traffic(out_bytes)
    bottleneck = bottleneck_seconds(cluster, gpus, traffic, program.channels)
    protocol = program.protocol
    bottleneck /= protocol.bandwidth_efficiency
    per_step = latency.per_step * protocol.latency_factor
    seconds = (
        latency.base
        + latency.datapath
        + pipelined_seconds(bottleneck, program.num_steps, 1, per_step)
    )
    region_of_rank = _region_of_rank(cluster, gpus)
    if region_of_rank is not None:
        wan_rtt = float(getattr(cluster.fabric.spec, "wan_rtt", 0.0))
        seconds += wan_rtt * program.wan_step_count(region_of_rank)
    return seconds


def _region_of_rank(
    cluster: Cluster, gpus: Sequence[GpuDevice]
) -> Optional[Callable[[int], int]]:
    region_of_host = getattr(cluster.fabric.spec, "region_of_host", None)
    if not callable(region_of_host):
        return None
    regions = [region_of_host(gpu.host_id) for gpu in gpus]
    return lambda rank: regions[rank]


def placement_groups(
    cluster: Cluster, gpus: Sequence[GpuDevice]
) -> Dict[str, List[List[int]]]:
    """Rank groupings the topology exposes, coarsest-meaningful first.

    Keys are grouping labels (``region`` / ``rack`` / ``host``); values
    partition ranks ``0..world-1``.  Groupings where every group is a
    single rank, or a single group swallows everyone, are dropped — the
    two-level schedule would degenerate to a flat ring.
    """
    spec = cluster.fabric.spec
    keys: Dict[str, Callable[[GpuDevice], int]] = {
        "host": lambda gpu: gpu.host_id,
        "rack": lambda gpu: cluster.rack_of(gpu),
    }
    region_of_host = getattr(spec, "region_of_host", None)
    if callable(region_of_host):
        keys["region"] = lambda gpu: region_of_host(gpu.host_id)

    out: Dict[str, List[List[int]]] = {}
    for label, key in keys.items():
        buckets: Dict[int, List[int]] = {}
        for rank, gpu in enumerate(gpus):
            buckets.setdefault(key(gpu), []).append(rank)
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
        latency: Fixed-overhead model (kept equal to the planner's).
        channel_options: Channel counts candidate programs may use.
        protocols: Protocol variants to cross every candidate with.
        beam_width: Candidates kept per distinct step count before the
            pareto cut.
    """

    def __init__(
        self,
        cluster: Cluster,
        gpus: Sequence[GpuDevice],
        *,
        latency: LatencyModel = MCCS_LATENCY,
        channel_options: Sequence[int] = (1, 2),
        protocols: Sequence[Protocol] = (
            Protocol.SIMPLE,
            Protocol.LL128,
            Protocol.LL,
        ),
        beam_width: int = 4,
    ) -> None:
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.cluster = cluster
        self.gpus = list(gpus)
        self.latency = latency
        self.channel_options = tuple(channel_options)
        self.protocols = tuple(protocols)
        self.beam_width = beam_width
        self.candidates_generated = 0
        self.candidates_rejected = 0

    # -- candidate generation -------------------------------------------
    def _generate(self, kind: Collective) -> List[Program]:
        world = len(self.gpus)
        groupings = placement_groups(self.cluster, self.gpus)
        programs: List[Program] = []
        for protocol in self.protocols:
            for channels in self.channel_options:
                tag = f"c{channels}.{protocol.value}"
                programs.append(
                    ring_program(
                        kind,
                        world,
                        channels=channels,
                        protocol=protocol,
                        name=f"synth:ring.{tag}/{kind.value}/w{world}",
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
                            protocol=protocol,
                            name=(
                                f"synth:hier-{label}.{tag}"
                                f"/{kind.value}/w{world}"
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
        scored: List[ScoredProgram] = []
        for program in self._generate(kind):
            self.candidates_generated += 1
            try:
                validate_program(program)
            except ProgramValidationError:
                self.candidates_rejected += 1
                continue
            scored.append(
                ScoredProgram(
                    program=program,
                    latency_seconds=estimate_program_seconds(
                        self.cluster,
                        self.gpus,
                        program,
                        LATENCY_PROBE_BYTES,
                        latency=self.latency,
                    ),
                    bandwidth_seconds=estimate_program_seconds(
                        self.cluster,
                        self.gpus,
                        program,
                        BANDWIDTH_PROBE_BYTES,
                        latency=self.latency,
                    ),
                )
            )
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
        """Keep the ``beam_width`` cheapest candidates per step count."""
        by_steps: Dict[int, List[ScoredProgram]] = {}
        for s in scored:
            by_steps.setdefault(s.program.num_steps, []).append(s)
        kept: List[ScoredProgram] = []
        for steps in sorted(by_steps):
            bucket = sorted(
                by_steps[steps],
                key=lambda s: (s.bandwidth_seconds, s.latency_seconds),
            )
            kept.extend(bucket[: self.beam_width])
        return kept


def synthesize_and_register(
    cluster: Cluster,
    gpus: Sequence[GpuDevice],
    kind: Collective = Collective.ALL_REDUCE,
    *,
    latency: LatencyModel = MCCS_LATENCY,
    channel_options: Sequence[int] = (1, 2),
    protocols: Sequence[Protocol] = (
        Protocol.SIMPLE,
        Protocol.LL128,
        Protocol.LL,
    ),
    beam_width: int = 4,
    max_programs: int = 4,
    replace: bool = True,
) -> List[SynthAlgorithm]:
    """Search this placement and register the pareto front.

    The registered algorithms carry the placement's topology fingerprint,
    so only plans for an identically shaped placement will see them.
    Returns the registered algorithms, best predicted first.
    """
    from ..autotune.cost import topology_fingerprint

    synthesizer = Synthesizer(
        cluster,
        gpus,
        latency=latency,
        channel_options=channel_options,
        protocols=protocols,
        beam_width=beam_width,
    )
    front = synthesizer.search(kind)[:max_programs]
    fingerprint = topology_fingerprint(cluster, gpus)
    return [
        register_program(
            scored.program, fingerprint=fingerprint, replace=replace
        )
        for scored in front
    ]
