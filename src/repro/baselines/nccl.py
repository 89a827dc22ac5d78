"""An NCCL-like collective communication library (the paper's baseline).

This models how NCCL v2.17.1 behaves from the perspective that matters to
the evaluation (§2, §4.2):

* the collective **strategy is fixed at communicator initialization** —
  inter-host rings follow the user-specified rank ordering, and nothing
  can change once the job starts;
* the library is **network-agnostic** — it opens one connection per
  (peer, channel) and leaves path selection to ECMP, so connections can
  collide on the same physical path;
* in a virtualized public cloud it **cannot see the fabric**, so it has no
  way to build rack-aware rings (the tenant would need expert knowledge of
  the provider's topology to pick a good GPU-to-rank mapping).

The ``NCCL(OR)`` baseline of the paper — NCCL with a manually injected
optimal ring — is expressed by passing ``ring_order`` to the constructor.

Like the rest of the reproduction, a communicator is driven by a single
simulation process that issues collectives for all ranks at once; this is
the standard collapsed-driver style for simulators and does not change
any traffic or timing behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.gpu import AsyncOp, GpuDevice, Stream
from ..cluster.specs import Cluster
from ..collectives.cost_model import NCCL_LATENCY
from ..collectives.executor import Staging
from ..collectives.programs import FlowProgramCache
from ..collectives.ring import RingSchedule, identity_ring
from ..collectives.tree import double_binary_trees
from ..collectives.types import Collective, ReduceOp, validate_world
from ..core.algorithms import AlgorithmContext, CollectiveAlgorithm, get_algorithm
from ..netsim.errors import CommunicatorError
from ..netsim.routing import EcmpSelector
from ..transport.connections import ConnectionTable
from ..transport.launcher import FlowTransport, LaunchHandle


def default_channels(gpus: Sequence[GpuDevice]) -> int:
    """NCCL-style default channel count: one per NIC the job can use.

    A job using k GPUs (and hence k virtual NICs) per host opens k
    channels, which is how the testbed's 8-GPU setup drives both 50G
    vNICs per host while the 4-GPU setup drives one.
    """
    per_host: Dict[int, int] = {}
    for gpu in gpus:
        per_host[gpu.host_id] = per_host.get(gpu.host_id, 0) + 1
    return max(per_host.values())


@dataclass
class CollectiveOp:
    """A single issued collective: timing handle plus optional data."""

    kind: Collective
    handle: Optional[LaunchHandle] = None
    outputs: Optional[List[np.ndarray]] = None
    issue_time: float = 0.0
    end_time: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.end_time is not None

    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError("collective still in flight")
        return self.end_time - self.issue_time


class NcclCommunicator:
    """A communicator in the NCCL mould: strategy frozen at init time.

    Args:
        cluster: The cluster the job runs on.
        gpus: The job's GPUs **in user rank order** (rank i -> gpus[i]).
            NCCL wires the inter-host ring in exactly this order.
        channels: Connections per peer pair; defaults to the number of
            GPUs (== NICs) the job uses per host.
        ring_order: Optional rank permutation overriding the ring — this is
            the paper's NCCL(OR) baseline, where the operator manually
            feeds the locality-optimized ordering to NCCL.
        algorithm: ``"ring"`` or ``"tree"`` (double binary tree AllReduce).
        ecmp_seed: Seed of the ECMP hash function; varying it across trials
            models different 5-tuple hash outcomes.
        job_id: Tag applied to all flows for fairness accounting; it also
            names the connections' ECMP namespace.  Defaults to
            ``ncclcomm<N>``, numbered by the cluster.
    """

    def __init__(
        self,
        cluster: Cluster,
        gpus: Sequence[GpuDevice],
        *,
        channels: Optional[int] = None,
        ring_order: Optional[Sequence[int]] = None,
        algorithm: str = "ring",
        ecmp_seed: int = 0,
        job_id: Optional[str] = None,
    ) -> None:
        validate_world(len(gpus))
        if algorithm not in ("ring", "tree", "auto"):
            raise CommunicatorError(f"unknown algorithm {algorithm!r}")
        self.comm_id = next(cluster.nccl_comm_ids)
        self.cluster = cluster
        self.gpus = list(gpus)
        self.world = len(gpus)
        self.job_id = job_id or f"ncclcomm{self.comm_id}"
        self.algorithm = algorithm
        self.channels = channels if channels is not None else default_channels(gpus)
        if self.channels < 1:
            raise CommunicatorError("channels must be >= 1")
        if ring_order is not None:
            self.schedule = RingSchedule(tuple(ring_order))
        else:
            self.schedule = identity_ring(self.world)
        self.trees = double_binary_trees(self.schedule.order)
        self._selector = EcmpSelector(seed=ecmp_seed)
        self._transport = FlowTransport(cluster, NCCL_LATENCY)
        self._stream = Stream(cluster.sim, name=f"{self.job_id}.comm")
        self._table = ConnectionTable(cluster, discriminator=self.job_id)
        self._establish()
        self.destroyed = False
        # (family, kind, size, root) -> (steps, transfers): identical
        # launches — the common traffic-loop case — reuse the compiled list.
        self.program_cache = FlowProgramCache()
        #: The executor's scratch and lane thread, kept for the
        #: communicator's life as a deployment keeps its own.
        self._staging = Staging()

    # ------------------------------------------------------------------
    def _establish(self) -> None:
        """Open the peer-to-peer connections the strategy needs.

        NCCL does this once when the communicator is created; the ECMP
        hash decided here sticks for the whole job.  With ``"auto"``
        selection both ring and tree connections are established up front
        (as NCCL does), and the algorithm is chosen per collective from
        the static cost model.
        """
        edges: List[Tuple[GpuDevice, GpuDevice]] = []
        for src_rank, dst_rank in self.schedule.edges():
            edges.append((self.gpus[src_rank], self.gpus[dst_rank]))
        if self.algorithm in ("tree", "auto"):
            for tree in self.trees:
                for child, parent in tree.edges():
                    edges.append((self.gpus[child], self.gpus[parent]))
                    edges.append((self.gpus[parent], self.gpus[child]))
        self._table.establish(edges, self.channels, self._selector)

    def _algorithm_for(self, kind: Collective, out_bytes: int) -> str:
        """Per-collective algorithm choice.

        Mirrors the static selection of classic libraries (§2.1): a
        latency/bandwidth cost model decides between ring and tree from
        the data length and participant count alone — with no knowledge
        of the actual network state, which is precisely the paper's
        critique.
        """
        if self.algorithm != "auto":
            return self.algorithm
        if kind is not Collective.ALL_REDUCE:
            return "ring"
        from ..collectives.cost_model import select_ring_or_tree

        nic_rate = self.cluster.topology.capacity_of(
            self.cluster.nic_of_channel(self.gpus[0], 0) + "->"
            + f"leaf{self.cluster.hosts[self.gpus[0].host_id].rack}"
        )
        return select_ring_or_tree(
            out_bytes, self.world, link_bandwidth=nic_rate * self.channels
        )

    def _program(self, algorithm: CollectiveAlgorithm, ctx: AlgorithmContext):
        """Step count and every rank's transfers, as the registry
        algorithm reads them off its plan — the library shares the
        service's schedules, only its strategy is frozen."""
        gpus = self.gpus
        transfers = [
            (gpus[rank], gpus[t.dst_rank], t.channel, t.nbytes)
            for rank, t in algorithm.transfers(ctx)
        ]
        # Channel-major, the order the connections were opened in.
        transfers.sort(key=lambda transfer: transfer[2])
        return algorithm.steps(ctx), tuple(transfers)

    @property
    def connections(self) -> ConnectionTable:
        return self._table

    def destroy(self) -> None:
        """ncclCommDestroy analogue: close all connections."""
        if not self.destroyed:
            self._table.teardown()
            self.destroyed = True

    # ------------------------------------------------------------------
    # collective API
    # ------------------------------------------------------------------
    def all_reduce(
        self,
        out_bytes: int,
        *,
        data: Optional[Sequence[np.ndarray]] = None,
        op: ReduceOp = ReduceOp.SUM,
        stream: Optional[Stream] = None,
        on_complete: Optional[Callable[[CollectiveOp, float], None]] = None,
    ) -> CollectiveOp:
        return self._collective(
            Collective.ALL_REDUCE, out_bytes, data, op, 0, stream, on_complete
        )

    def all_gather(
        self,
        out_bytes: int,
        *,
        data: Optional[Sequence[np.ndarray]] = None,
        stream: Optional[Stream] = None,
        on_complete: Optional[Callable[[CollectiveOp, float], None]] = None,
    ) -> CollectiveOp:
        return self._collective(
            Collective.ALL_GATHER, out_bytes, data, ReduceOp.SUM, 0, stream, on_complete
        )

    def reduce_scatter(
        self,
        out_bytes: int,
        *,
        data: Optional[Sequence[np.ndarray]] = None,
        op: ReduceOp = ReduceOp.SUM,
        stream: Optional[Stream] = None,
        on_complete: Optional[Callable[[CollectiveOp, float], None]] = None,
    ) -> CollectiveOp:
        return self._collective(
            Collective.REDUCE_SCATTER, out_bytes, data, op, 0, stream, on_complete
        )

    def broadcast(
        self,
        out_bytes: int,
        root: int = 0,
        *,
        data: Optional[Sequence[np.ndarray]] = None,
        stream: Optional[Stream] = None,
        on_complete: Optional[Callable[[CollectiveOp, float], None]] = None,
    ) -> CollectiveOp:
        return self._collective(
            Collective.BROADCAST, out_bytes, data, ReduceOp.SUM, root, stream, on_complete
        )

    def reduce(
        self,
        out_bytes: int,
        root: int = 0,
        *,
        data: Optional[Sequence[np.ndarray]] = None,
        op: ReduceOp = ReduceOp.SUM,
        stream: Optional[Stream] = None,
        on_complete: Optional[Callable[[CollectiveOp, float], None]] = None,
    ) -> CollectiveOp:
        return self._collective(
            Collective.REDUCE, out_bytes, data, op, root, stream, on_complete
        )

    # ------------------------------------------------------------------
    def _collective(
        self,
        kind: Collective,
        out_bytes: int,
        data: Optional[Sequence[np.ndarray]],
        op: ReduceOp,
        root: int,
        stream: Optional[Stream],
        on_complete: Optional[Callable[[CollectiveOp, float], None]],
    ) -> CollectiveOp:
        if self.destroyed:
            raise CommunicatorError("communicator has been destroyed")
        if out_bytes <= 0:
            raise CommunicatorError("collective size must be positive")
        # Ring unless the (static) selection says tree; either way the
        # bytes move through the one executor, relabelled by the ring.
        family = (
            self._algorithm_for(kind, out_bytes)
            if kind is Collective.ALL_REDUCE
            else "ring"
        )
        algorithm = get_algorithm(family)
        ctx = AlgorithmContext(
            kind=kind,
            out_bytes=out_bytes,
            world=self.world,
            rank=self.schedule.order[0],
            root=root,
            ring_order=self.schedule.order,
            channels=self.channels,
        )
        result = CollectiveOp(kind=kind, issue_time=self.cluster.sim.now)
        target_stream = stream if stream is not None else self._stream

        def finished(handle: LaunchHandle, now: float) -> None:
            result.end_time = now
            if data is not None:
                result.outputs = algorithm.run_data(ctx, data, op, staging=self._staging)
            kernel.complete()
            if on_complete is not None:
                on_complete(result, now)

        def inject() -> None:
            steps, transfers = self.program_cache.get(
                (family, kind, out_bytes, root),
                lambda: self._program(algorithm, ctx),
            )
            result.handle = self._transport.launch(
                kind=kind,
                out_bytes=out_bytes,
                transfers=transfers,
                steps=steps,
                table=self._table,
                job_id=self.job_id,
                on_complete=finished,
            )

        name = "all_reduce_tree" if family == "tree" else kind.value
        kernel = AsyncOp(name=name, on_start=inject)
        target_stream.enqueue(kernel)
        return result
