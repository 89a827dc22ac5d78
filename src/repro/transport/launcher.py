"""Turning collective launches into network flows.

This is the shared machinery beneath NCCL's transport agent and MCCS's
transport engines: given a collective (kind, size), a schedule (ring or
tree), the GPU of each rank and an established connection table, it injects
one fluid flow per (edge, channel) into the simulator and reports
completion when the slowest flow finishes — a collective is only done when
every participant is done.

Fixed overheads (kernel launch, rendezvous, and for MCCS the shim->service
IPC hop) are modelled by delaying flow injection by the latency model's
per-collective cost, which is what produces the small-message penalty of
Figure 6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel
from ..collectives.programs import FlowProgramCache, ProgramTransfer
from ..collectives.ring import RingSchedule, edge_traffic, steps_for
from ..collectives.tree import (
    TreeSchedule,
    double_tree_allreduce_traffic,
    tree_steps,
)
from ..collectives.types import Collective
from ..netsim.errors import CollectiveTimeoutError, FaultError
from ..netsim.flows import Flow
from .connections import ConnectionTable

_launch_counter = itertools.count()


class FlowGate(Protocol):
    """Hook letting a QoS policy gate a job's traffic (see TS, §4.3)."""

    def register(self, flows: Sequence[Flow]) -> None:  # pragma: no cover - protocol
        """See one freshly injected launch batch (never empty)."""


@dataclass
class LaunchHandle:
    """One in-flight (or completed) collective launch."""

    launch_id: int
    kind: Collective
    out_bytes: int
    job_id: Optional[str]
    issue_time: float
    flows: List[Flow] = field(default_factory=list)
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    tags: Dict[str, object] = field(default_factory=dict)
    #: First failure that killed this launch (flow failure or deadline);
    #: the remaining flows were cancelled when it was set.
    error: Optional[BaseException] = None

    @property
    def completed(self) -> bool:
        return self.end_time is not None and self.error is None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def duration(self) -> float:
        """Wall time from issue to completion (includes fixed latency)."""
        if self.end_time is None:
            raise ValueError("collective still in flight")
        return self.end_time - self.issue_time


class FlowTransport:
    """Injects collective traffic into the fluid simulator."""

    def __init__(
        self,
        cluster: Cluster,
        latency: LatencyModel,
        gate: Optional[FlowGate] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.latency = latency
        self.gate = gate
        self.launches: List[LaunchHandle] = []
        # Rank-level transfer programs: identical (kind, size, schedule,
        # channels, root) launches — the common traffic-loop case — reuse
        # the compiled list and only rebind GPUs.
        self.program_cache = FlowProgramCache()

    # ------------------------------------------------------------------
    def launch_ring(
        self,
        *,
        kind: Collective,
        out_bytes: int,
        schedule: RingSchedule,
        gpus_by_rank: Sequence[GpuDevice],
        table: ConnectionTable,
        channels: int,
        job_id: Optional[str] = None,
        root: int = 0,
        on_complete: Optional[Callable[[LaunchHandle, float], None]] = None,
        tags: Optional[Dict[str, object]] = None,
        on_fail: Optional[Callable[[LaunchHandle, float, BaseException], None]] = None,
        deadline: Optional[float] = None,
    ) -> LaunchHandle:
        """Issue a ring collective; returns immediately with a handle.

        ``deadline`` (seconds from issue) arms a watchdog: if the launch
        has not finished by then it fails with
        :class:`CollectiveTimeoutError` and its flows are cancelled.
        ``on_fail`` fires when any flow dies or the deadline expires.
        """
        if channels < 1:
            raise ValueError("channels must be >= 1")
        world = schedule.world
        if len(gpus_by_rank) != world:
            raise ValueError("gpus_by_rank must cover every rank")

        def compile_ring() -> Tuple[ProgramTransfer, ...]:
            root_position = schedule.position_of(root)
            per_channel = out_bytes / channels
            per_edge = edge_traffic(kind, per_channel, world, root_position)
            return tuple(
                (schedule.order[pos], schedule.order[(pos + 1) % world], channel, nbytes)
                for channel in range(channels)
                for pos, nbytes in enumerate(per_edge)
                if nbytes > 0
            )

        program = self.program_cache.get(
            ("ring", kind, out_bytes, schedule.order, channels, root),
            compile_ring,
        )
        transfers = [
            (gpus_by_rank[src_rank], gpus_by_rank[dst_rank], channel, nbytes)
            for src_rank, dst_rank, channel, nbytes in program
        ]
        steps = steps_for(kind, world)
        return self._launch(
            kind, out_bytes, transfers, table, steps, job_id, on_complete,
            tags, on_fail=on_fail, deadline=deadline,
        )

    def launch_double_tree(
        self,
        *,
        out_bytes: int,
        trees: Tuple[TreeSchedule, TreeSchedule],
        gpus_by_rank: Sequence[GpuDevice],
        table: ConnectionTable,
        job_id: Optional[str] = None,
        on_complete: Optional[Callable[[LaunchHandle, float], None]] = None,
        tags: Optional[Dict[str, object]] = None,
        on_fail: Optional[Callable[[LaunchHandle, float, BaseException], None]] = None,
        deadline: Optional[float] = None,
    ) -> LaunchHandle:
        """Issue an AllReduce over a double binary tree."""
        world = trees[0].world
        if len(gpus_by_rank) != world:
            raise ValueError("gpus_by_rank must cover every rank")

        def compile_tree() -> Tuple[ProgramTransfer, ...]:
            traffic = double_tree_allreduce_traffic(trees, out_bytes)
            return tuple(
                (src_rank, dst_rank, 0, nbytes)
                for (src_rank, dst_rank), nbytes in sorted(traffic.items())
                if nbytes > 0
            )

        program = self.program_cache.get(
            ("tree", trees, out_bytes), compile_tree
        )
        transfers = [
            (gpus_by_rank[src_rank], gpus_by_rank[dst_rank], channel, nbytes)
            for src_rank, dst_rank, channel, nbytes in program
        ]
        steps = max(tree_steps(t) for t in trees)
        return self._launch(
            Collective.ALL_REDUCE,
            out_bytes,
            transfers,
            table,
            steps,
            job_id,
            on_complete,
            tags,
            on_fail=on_fail,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    def _launch(
        self,
        kind: Collective,
        out_bytes: int,
        transfers: List[Tuple[GpuDevice, GpuDevice, int, float]],
        table: ConnectionTable,
        steps: int,
        job_id: Optional[str],
        on_complete: Optional[Callable[[LaunchHandle, float], None]],
        tags: Optional[Dict[str, object]],
        on_fail: Optional[Callable[[LaunchHandle, float, BaseException], None]] = None,
        deadline: Optional[float] = None,
    ) -> LaunchHandle:
        handle = LaunchHandle(
            launch_id=next(_launch_counter),
            kind=kind,
            out_bytes=out_bytes,
            job_id=job_id,
            issue_time=self.sim.now,
            tags=dict(tags or {}),
        )
        self.launches.append(handle)
        fixed = self.latency.collective_latency(steps)

        def fail(error: BaseException) -> None:
            """Kill the launch: one failed flow (or a blown deadline)
            fails the whole collective, and the survivors are cancelled
            so the handle settles instead of hanging."""
            if handle.end_time is not None:
                return
            handle.error = error
            handle.end_time = self.sim.now
            for other in handle.flows:
                self.sim.cancel_flow(other)
            if on_fail is not None:
                on_fail(handle, handle.end_time, error)

        pending: set = set()

        def flow_done(flow: Optional[Flow], now: float) -> None:
            """Completion target shared by the launch's flows: the
            collective is done when its slowest flow is."""
            pending.discard(flow)
            if not pending and handle.end_time is None:
                handle.end_time = now
                if on_complete is not None:
                    on_complete(handle, now)

        def inject() -> None:
            if handle.end_time is not None:
                return  # deadline expired before injection
            handle.start_time = self.sim.now
            try:
                batch = [
                    (nbytes, table.connection(src, dst, channel).path, channel)
                    for src, dst, channel, nbytes in transfers
                ]
                handle.flows = self.sim.add_flows(
                    batch,
                    job_id=job_id,
                    tags={
                        "launch": handle.launch_id,
                        "kind": kind.value,
                        **handle.tags,
                    },
                    on_complete=flow_done,
                    on_fail=lambda _f, _t, err: fail(err),
                )
            except FaultError as exc:
                fail(exc)
                return
            if not handle.flows:
                self.sim.schedule(
                    self.sim.now, lambda: flow_done(None, self.sim.now)
                )
                return
            pending.update(handle.flows)
            if self.gate is not None:
                self.gate.register(handle.flows)

        if deadline is not None:
            self.sim.call_in(
                deadline,
                lambda: fail(
                    CollectiveTimeoutError(
                        f"launch {handle.launch_id} ({kind.value}, "
                        f"{out_bytes:g}B) exceeded its {deadline:g}s deadline"
                    )
                ),
            )
        if fixed > 0:
            self.sim.call_in(fixed, inject)
        else:
            inject()
        return handle
