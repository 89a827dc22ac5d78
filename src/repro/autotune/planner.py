"""The offline strategy planner.

Enumerates candidate :class:`~repro.core.strategy.CollectiveStrategy`
configurations — algorithm family (every registry entry, including
``halving_doubling``), channel count, ring order, chunk size — and scores
each with :func:`repro.autotune.cost.estimate_seconds`.  The output is
either a ranked candidate list (seeding the online bandit's arms) or a
persistable :class:`~repro.autotune.table.TuningTable` covering a sweep of
(kind, size) cells.

Chunk size is a *planning* dimension: the fluid simulator's runtime cost
does not depend on it, so candidates sharing a runtime signature
``(algorithm, channels, ring)`` are collapsed to their cheapest chunking
before ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel, MCCS_LATENCY
from ..collectives.halving_doubling import is_power_of_two
from ..collectives.types import Collective
from ..core.algorithms import get_algorithm, registered_algorithms
from ..core.policies.ring_order import locality_ring_order
from ..netsim.units import KB
from ..telemetry.metrics import MetricsRegistry
from .cost import estimate_seconds, topology_fingerprint
from .table import TableEntry, TableKey, TuningTable, size_bucket

#: Runtime-distinguishable part of a candidate: what a reconfiguration can
#: actually install and what a measurement can be attributed to.
Signature = Tuple[str, int, Tuple[int, ...]]

#: Channel counts and chunk sizes (bytes, ascending) every plan sweeps.
CHANNEL_COUNTS = (1, 2)
CHUNK_SIZES = (64 * KB, 256 * KB, 1024 * KB)


def canonical_ring(order: Sequence[int]) -> Tuple[int, ...]:
    """Canonical representative of a ring under rotation and reflection.

    A ring order is a *cycle*: rotations produce the identical set of
    directed edges, and the reflection reverses every edge — which costs
    the same on duplex symmetric links.  Candidates whose orders share a
    canonical form are duplicates the planner should score only once.
    """
    order = tuple(order)
    if not order:
        return order

    def rotated(o: Tuple[int, ...]) -> Tuple[int, ...]:
        pivot = o.index(min(o))
        return o[pivot:] + o[:pivot]

    return min(rotated(order), rotated(tuple(reversed(order))))


@dataclass(frozen=True)
class Candidate:
    """One point of the planner's search space."""

    algorithm: str
    channels: int
    ring: Tuple[int, ...]
    ring_label: str
    chunk_bytes: int

    def signature(self) -> Signature:
        return (self.algorithm, self.channels, self.ring)


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: Candidate
    predicted_seconds: float


class StrategyPlanner:
    """Enumerates and scores candidate strategies for one cluster.

    Args:
        cluster: Fabric + placement the estimates are computed against.
        latency: Fixed-overhead model (must match the deployment's so
            predicted and measured times are on the same scale).
        metrics: Optional registry receiving
            ``mccs_autotune_plans_evaluated_total``.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        latency: LatencyModel = MCCS_LATENCY,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cluster = cluster
        self.latency = latency
        self.metrics = metrics
        self.plans_evaluated = 0

    # ------------------------------------------------------------------
    # candidate space
    # ------------------------------------------------------------------
    def ring_orders(
        self, gpus: Sequence[GpuDevice]
    ) -> Dict[str, Tuple[int, ...]]:
        """Named ring orders worth considering for this placement.

        Orders that are rotations or reflections of an already-kept one
        are dropped (see :func:`canonical_ring`): they produce the same
        (or the edge-reversed) traffic on every link, so scoring them
        would only duplicate candidates.
        """
        world = len(gpus)
        orders: Dict[str, Tuple[int, ...]] = {
            "rank_order": tuple(range(world))
        }
        seen = {canonical_ring(order) for order in orders.values()}
        locality = tuple(locality_ring_order(self.cluster, gpus))
        if canonical_ring(locality) not in seen:
            orders["locality"] = locality
        return orders

    def algorithms(self, kind: Collective, world: int) -> List[str]:
        """Registry algorithms that do not just alias the ring here.

        Synthesized chunk-level programs are excluded: they are offered
        by :meth:`synth_algorithms` only on an exactly matching topology
        fingerprint, with their own fixed channel/ring configuration.
        """
        names = ["ring"]
        if kind is Collective.ALL_REDUCE:
            for name in registered_algorithms():
                if name == "ring":
                    continue
                if name == "halving_doubling" and not is_power_of_two(world):
                    continue
                if get_algorithm(name).program is not None:
                    continue
                names.append(name)
        return names

    def synth_algorithms(
        self, kind: Collective, gpus: Sequence[GpuDevice]
    ) -> List[str]:
        """Synthesized programs applicable to this exact placement.

        A program qualifies only if it covers (kind, world) *and* was
        synthesized for this placement's topology fingerprint — programs
        registered for other fabrics (or with no fingerprint at all)
        never leak into the plan.
        """
        fingerprint = topology_fingerprint(self.cluster, gpus)
        names: List[str] = []
        for name in registered_algorithms():
            algo = get_algorithm(name)
            if algo.program is None or algo.fingerprint != fingerprint:
                continue
            if not algo.supports(kind, len(gpus)):
                continue
            names.append(name)
        return names

    def candidates(
        self, kind: Collective, gpus: Sequence[GpuDevice]
    ) -> List[Candidate]:
        out: List[Candidate] = []
        for algorithm in self.algorithms(kind, len(gpus)):
            for channels in CHANNEL_COUNTS:
                for label, ring in sorted(self.ring_orders(gpus).items()):
                    for chunk_bytes in CHUNK_SIZES:
                        out.append(
                            Candidate(
                                algorithm=algorithm,
                                channels=channels,
                                ring=ring,
                                ring_label=label,
                                chunk_bytes=chunk_bytes,
                            )
                        )
        identity = tuple(range(len(gpus)))
        for algorithm in self.synth_algorithms(kind, gpus):
            # A program fixes its own channel assignment and ignores the
            # ring order; only the chunking dimension is swept.
            program = get_algorithm(algorithm).program
            for chunk_bytes in CHUNK_SIZES:
                out.append(
                    Candidate(
                        algorithm=algorithm,
                        channels=program.channels,
                        ring=identity,
                        ring_label="synth",
                        chunk_bytes=chunk_bytes,
                    )
                )
        return out

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def plan(
        self, kind: Collective, out_bytes: int, gpus: Sequence[GpuDevice]
    ) -> List[ScoredCandidate]:
        """Score every candidate, collapse chunking per runtime signature,
        and return the survivors cheapest-first."""
        best_by_signature: Dict[Signature, ScoredCandidate] = {}
        evaluated = 0
        for candidate in self.candidates(kind, gpus):
            predicted = estimate_seconds(
                self.cluster,
                gpus,
                kind,
                out_bytes,
                algorithm=get_algorithm(candidate.algorithm),
                channels=candidate.channels,
                ring=candidate.ring,
                chunk_bytes=candidate.chunk_bytes,
                latency=self.latency,
            )
            evaluated += 1
            signature = candidate.signature()
            current = best_by_signature.get(signature)
            if current is None or predicted < current.predicted_seconds:
                best_by_signature[signature] = ScoredCandidate(
                    candidate=candidate, predicted_seconds=predicted
                )
        self.plans_evaluated += evaluated
        if self.metrics is not None:
            self.metrics.counter(
                "mccs_autotune_plans_evaluated_total",
                "Candidate strategies scored by the autotune planner.",
            ).inc(evaluated, kind=kind.value)
        return sorted(
            best_by_signature.values(), key=lambda s: s.predicted_seconds
        )

    def best(
        self, kind: Collective, out_bytes: int, gpus: Sequence[GpuDevice]
    ) -> ScoredCandidate:
        return self.plan(kind, out_bytes, gpus)[0]

    # ------------------------------------------------------------------
    # offline table construction
    # ------------------------------------------------------------------
    def build_table(
        self,
        gpus: Sequence[GpuDevice],
        *,
        kinds: Sequence[Collective],
        sizes: Sequence[int],
        table: Optional[TuningTable] = None,
    ) -> TuningTable:
        """Plan a (kind, size) sweep into a persistable tuning table.

        Sizes landing in the same power-of-two bucket are planned once at
        the largest representative.
        """
        if table is None:
            table = TuningTable()
        fingerprint = topology_fingerprint(self.cluster, gpus)
        world = len(gpus)
        for kind in kinds:
            representatives: Dict[int, int] = {}
            for size in sizes:
                bucket = size_bucket(size)
                representatives[bucket] = max(
                    representatives.get(bucket, 0), size
                )
            for bucket, size in sorted(representatives.items()):
                ranked = self.plan(kind, size, gpus)
                winner = ranked[0]
                table.put(
                    TableKey(
                        kind=kind.value,
                        world=world,
                        bucket=bucket,
                        fingerprint=fingerprint,
                    ),
                    TableEntry(
                        algorithm=winner.candidate.algorithm,
                        channels=winner.candidate.channels,
                        ring=winner.candidate.ring,
                        chunk_bytes=winner.candidate.chunk_bytes,
                        predicted_seconds=winner.predicted_seconds,
                        candidates_evaluated=len(ranked),
                    ),
                )
        return table
