"""Turning collective launches into network flows.

This is the machinery beneath the NCCL baseline's transport agent: given
the transfers and step count of a collective — both read off the
algorithm's compiled plan by the caller (:mod:`repro.core.algorithms`) —
and an established connection table, it injects one fluid flow per
transfer into the simulator and reports completion when the slowest flow
finishes — a collective is only done when every participant is done.

Fixed overheads (kernel launch, rendezvous, and for MCCS the shim->service
IPC hop) are modelled by delaying flow injection by the latency model's
per-collective cost, which is what produces the small-message penalty of
Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel
from ..collectives.types import Collective
from ..netsim.errors import FaultError
from ..netsim.flows import Flow
from .connections import ConnectionTable


@dataclass
class LaunchHandle:
    """One in-flight (or completed) collective launch."""

    kind: Collective
    out_bytes: int
    job_id: Optional[str]
    issue_time: float
    flows: List[Flow] = field(default_factory=list)
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: First failure that killed this launch; the remaining flows were
    #: cancelled when it was set.
    error: Optional[BaseException] = None

    def duration(self) -> float:
        """Wall time from issue to completion (includes fixed latency)."""
        if self.end_time is None:
            raise ValueError("collective still in flight")
        return self.end_time - self.issue_time


class FlowTransport:
    """Injects collective traffic into the fluid simulator."""

    def __init__(self, cluster: Cluster, latency: LatencyModel) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.latency = latency

    def launch(
        self,
        *,
        kind: Collective,
        out_bytes: int,
        transfers: Sequence[Tuple[GpuDevice, GpuDevice, int, float]],
        steps: int,
        table: ConnectionTable,
        job_id: Optional[str] = None,
        on_complete: Optional[Callable[[LaunchHandle, float], None]] = None,
    ) -> LaunchHandle:
        """Issue a collective as ``(src, dst, channel, nbytes)``
        ``transfers`` after ``steps`` hops of fixed latency; returns
        immediately with a handle.  ``on_complete`` fires only if every
        flow drains; a failure settles the handle with its ``error``."""
        handle = LaunchHandle(
            kind=kind,
            out_bytes=out_bytes,
            job_id=job_id,
            issue_time=self.sim.now,
        )
        fixed = self.latency.collective_latency(steps)

        def fail(error: BaseException) -> None:
            """Kill the launch: one failed flow fails the whole
            collective, and the survivors are cancelled so the handle
            settles instead of hanging."""
            if handle.end_time is not None:
                return
            handle.error = error
            handle.end_time = self.sim.now
            for other in handle.flows:
                self.sim.cancel_flow(other)

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
            handle.start_time = self.sim.now
            try:
                batch = [
                    (nbytes, table.connection(src, dst, channel).path, channel)
                    for src, dst, channel, nbytes in transfers
                ]
                handle.flows = self.sim.add_flows(
                    batch,
                    job_id=job_id,
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

        if fixed > 0:
            self.sim.call_in(fixed, inject)
        else:
            inject()
        return handle
