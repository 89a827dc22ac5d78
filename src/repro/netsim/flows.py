"""Flow objects tracked by the fluid simulator.

A :class:`Flow` is a fixed-size transfer over an explicit path of link ids.
Its *rate* is recomputed by the max-min fairness allocator whenever the set
of active flows changes.  Flows carry bookkeeping tags (job id, communicator
id, channel) so policies such as FFA can round-robin between jobs and the
traffic-scheduling (TS) policy can gate the flows of a specific tenant.

A flow in the network owns one slot of the engine's solver, and that slot
holds its data plane too — remaining bytes, installed rate and the
lazy-progress anchor — so a rate recomputation settles and re-anchors a
whole batch with a handful of numpy ops indexed by the slots it changed.
``flow.remaining`` / ``flow.rate`` read through to the solver's columns
while the flow is in the network and fall back to plain attributes once
it leaves (or for a ``Flow`` no solver registered).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple


class Flow:
    """One fluid flow.

    Attributes:
        flow_id: Unique id within a simulation (``flow0``, ``flow1``, ...
            in injection order); a flow built outside a simulator is
            named by its caller.
        size: Total bytes to transfer.
        path: Tuple of link ids traversed, in order.
        job_id: Owning job/tenant (used by fairness-aware policies).
        weight: Max-min fairness weight (1.0 = plain per-flow fairness,
            matching the paper's simulator assumption).
        gated: While True the flow is withheld from the network (rate 0);
            used by the time-window traffic scheduling policy.
        remaining: Bytes still to transfer.
        rate: Current allocated rate in bytes/s (maintained by the engine).
        start_time: Simulation time the flow entered the network.
        end_time: Completion time, or None while in flight.
        failed: True once the flow was killed by an infrastructure fault
            (link down, host crash); failed flows never complete.
        error: The fault that killed the flow, or None.
        on_complete: Callback ``fn(flow, now)`` fired at completion.
        on_fail: Callback ``fn(flow, now, error)`` fired when a fault
            kills the flow (never fired for plain cancellation).
        tags: Free-form metadata (a collective's causal trace, ...).
            The flows of one :meth:`FlowSimulator.add_flows` batch share
            one dict; treat it as read-only.
        channel: Index of the flow within its connection's channel
            fan-out, or None.
        rank: The collective rank whose program sent the flow, or None.
            Rank and channel are what differs inside a launch batch.
        links: The distinct links of ``path`` (order-stable); computed
            once — by the simulator once per distinct route — so the
            fairness allocator and utilization aggregation never rebuild
            a ``set(flow.path)`` on the hot path.
    """

    __slots__ = (
        "flow_id",
        "size",
        "path",
        "job_id",
        "weight",
        "gated",
        "start_time",
        "end_time",
        "failed",
        "error",
        "on_complete",
        "on_fail",
        "tags",
        "channel",
        "rank",
        "links",
        "_remaining",
        "_rate",
        "_synced",
        "_heap_epoch",
        "_arena",
        "_slot",
    )

    def __init__(
        self,
        size: float,
        path: Sequence[str],
        flow_id: str,
        job_id: Optional[str] = None,
        weight: float = 1.0,
        gated: bool = False,
        on_complete: Optional[Callable[["Flow", float], None]] = None,
        on_fail: Optional[Callable[["Flow", float, BaseException], None]] = None,
        tags: Optional[Dict[str, object]] = None,
        links: Optional[Tuple[str, ...]] = None,
    ) -> None:
        if size <= 0:
            raise ValueError("flow size must be positive")
        if not path:
            raise ValueError("flow path must contain at least one link")
        if weight <= 0:
            raise ValueError("flow weight must be positive")
        self.flow_id = flow_id
        self.size = size
        self.path = tuple(path)
        self.job_id = job_id
        self.weight = weight
        self.gated = gated
        self.start_time = 0.0
        self.end_time: Optional[float] = None
        self.failed = False
        self.error: Optional[BaseException] = None
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.tags: Dict[str, object] = {} if tags is None else tags
        self.channel: Optional[int] = None
        self.rank: Optional[int] = None
        if links is None:
            links = tuple(dict.fromkeys(self.path))
        self.links: Tuple[str, ...] = links
        self._remaining = float(size)
        self._rate = 0.0
        #: Engine-managed anchor of the lazy progress clock: ``remaining``
        #: is exact as of this simulation time; between rate changes the
        #: engine derives progress as ``remaining - rate*(now - _synced)``.
        self._synced = 0.0
        #: Engine-managed heap-entry generation; bumping it invalidates
        #: any completion-time heap entry pushed for this flow.
        self._heap_epoch = 0
        #: While in the network: the solver holding the data plane, and
        #: the flow's slot in it.
        self._arena: Optional[object] = None
        self._slot = -1

    @property
    def remaining(self) -> float:
        arena = self._arena
        if arena is None:
            return self._remaining
        return float(arena.remaining[self._slot])

    @remaining.setter
    def remaining(self, value: float) -> None:
        arena = self._arena
        if arena is None:
            self._remaining = value
        else:
            arena.remaining[self._slot] = value

    @property
    def rate(self) -> float:
        arena = self._arena
        if arena is None:
            return self._rate
        return float(arena.rate[self._slot])

    # -- lifecycle queries ---------------------------------------------
    @property
    def completed(self) -> bool:
        return self.end_time is not None

    @property
    def active(self) -> bool:
        """True when the flow competes for bandwidth right now."""
        return self.end_time is None and not self.gated

    def fct(self) -> float:
        """Flow completion time; raises if the flow has not finished."""
        if self.end_time is None:
            raise ValueError(f"{self.flow_id} has not completed")
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.failed:
            state = "failed"
        else:
            state = "done" if self.completed else ("gated" if self.gated else "active")
        return (
            f"Flow({self.flow_id}, size={self.size:.0f}, "
            f"remaining={self.remaining:.0f}, rate={self.rate:.3g}, {state})"
        )
