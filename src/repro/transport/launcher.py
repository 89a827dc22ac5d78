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

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel
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
        tags: Optional[Dict[str, object]] = None,
        on_fail: Optional[Callable[[LaunchHandle, float, BaseException], None]] = None,
        deadline: Optional[float] = None,
    ) -> LaunchHandle:
        """Issue a collective as ``(src, dst, channel, nbytes)``
        ``transfers`` after ``steps`` hops of fixed latency; returns
        immediately with a handle.

        ``deadline`` (seconds from issue) arms a watchdog: if the launch
        has not finished by then it fails with
        :class:`CollectiveTimeoutError` and its flows are cancelled.
        ``on_fail`` fires when any flow dies or the deadline expires.
        """
        handle = LaunchHandle(
            launch_id=next(_launch_counter),
            kind=kind,
            out_bytes=out_bytes,
            job_id=job_id,
            issue_time=self.sim.now,
            tags=dict(tags or {}),
        )
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
