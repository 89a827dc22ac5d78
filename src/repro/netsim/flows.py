"""Flow objects tracked by the fluid simulator.

A :class:`Flow` is a fixed-size transfer over an explicit path of link ids.
Its *rate* is recomputed by the max-min fairness allocator whenever the set
of active flows changes.  Flows carry bookkeeping tags (job id, communicator
id, channel) so policies such as FFA can round-robin between jobs and the
traffic-scheduling (TS) policy can gate the flows of a specific tenant.

The engine keeps the per-flow *data plane* — remaining bytes, allocated
rate, and the lazy-progress anchor — in flat numpy arrays
(:class:`FlowArena`) so a rate recomputation can settle and re-anchor a
whole batch of flows with a handful of numpy ops instead of N Python
attribute walks.  The :class:`Flow` object remains the public handle:
``flow.remaining`` / ``flow.rate`` read through to the arena while the
flow is in the network and fall back to plain attributes once it leaves
(and for a standalone ``Flow`` no engine ever attached).  Readers never
observe stale values either way.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

# Fallback ids for flows constructed outside a simulator (solver tests,
# benchmarks); :class:`~repro.netsim.engine.FlowSimulator` numbers its own
# flows per simulator and never draws from this counter.
_flow_counter = itertools.count()


class FlowArena:
    """Flat-array storage for the per-flow data plane.

    One arena per engine; each attached flow owns one slot in the
    ``remaining`` / ``rate`` / ``synced`` arrays.  Slots are recycled
    through a free list when flows detach, so array length tracks the
    peak concurrent population, not the total flow count.
    """

    __slots__ = ("remaining", "rate", "synced", "_free", "_top")

    def __init__(self, initial: int = 64) -> None:
        self.remaining = np.zeros(initial, dtype=float)
        self.rate = np.zeros(initial, dtype=float)
        self.synced = np.zeros(initial, dtype=float)
        self._free: list = []
        self._top = 0

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        slot = self._top
        self._top += 1
        if slot >= len(self.remaining):
            size = int(len(self.remaining) * 1.5) + 8
            for name in ("remaining", "rate", "synced"):
                old = getattr(self, name)
                grown = np.zeros(size, dtype=float)
                grown[: len(old)] = old
                setattr(self, name, grown)
        return slot

    def release(self, slot: int) -> None:
        self._free.append(slot)


class Flow:
    """One fluid flow.

    Attributes:
        flow_id: Unique id within a simulation (``flow0``, ``flow1``, ...
            in injection order; standalone flows get ``flow#N``).
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
        tags: Free-form metadata (communicator id, sequence number, ...).
            The flows of one :meth:`FlowSimulator.add_flows` batch share
            one dict; treat it as read-only.
        channel: Index of the flow within its connection's channel
            fan-out (the one tag that differs inside a launch batch; set
            by :meth:`FlowSimulator.add_flows`), or None.
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
        "links",
        "_remaining",
        "_rate",
        "_synced",
        "_heap_epoch",
        "_recorder",
        "_arena",
        "_slot",
    )

    def __init__(
        self,
        size: float,
        path: Sequence[str],
        flow_id: Optional[str] = None,
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
        if flow_id is None:
            flow_id = f"flow#{next(_flow_counter)}"
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
        if links is None:
            links = tuple(dict.fromkeys(self.path))
        self.links: Tuple[str, ...] = links
        self._remaining = float(size)
        self._rate = 0.0
        #: Engine-managed anchor of the lazy progress clock: ``remaining``
        #: is exact as of this simulation time; between rate changes the
        #: engine derives progress as ``remaining - rate*(now - _synced_at)``.
        self._synced = 0.0
        #: Engine-managed heap-entry generation; bumping it invalidates
        #: any completion-time heap entry pushed for this flow.
        self._heap_epoch = 0
        #: Optional per-flow rate recorder installed by the causal tracer;
        #: the engine calls ``_recorder.on_rate_change(flow, now, rate,
        #: bottleneck_link)`` whenever this flow's allocation moves,
        #: keeping the hook O(changed flows) per recomputation.
        self._recorder: Optional[object] = None
        self._arena: Optional[FlowArena] = None
        self._slot = -1

    # -- flat-array data plane -----------------------------------------
    def _attach(self, arena: FlowArena) -> int:
        """Move the data plane into ``arena``; returns the slot."""
        slot = arena.alloc()
        arena.remaining[slot] = self._remaining
        arena.rate[slot] = self._rate
        arena.synced[slot] = self._synced
        self._arena = arena
        self._slot = slot
        return slot

    def _detach(self) -> None:
        """Copy the data plane back to plain attributes and free the slot."""
        arena = self._arena
        if arena is None:
            return
        slot = self._slot
        self._remaining = float(arena.remaining[slot])
        self._rate = float(arena.rate[slot])
        self._synced = float(arena.synced[slot])
        self._arena = None
        self._slot = -1
        arena.release(slot)

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

    @rate.setter
    def rate(self, value: float) -> None:
        arena = self._arena
        if arena is None:
            self._rate = value
        else:
            arena.rate[self._slot] = value

    @property
    def _synced_at(self) -> float:
        arena = self._arena
        if arena is None:
            return self._synced
        return float(arena.synced[self._slot])

    @_synced_at.setter
    def _synced_at(self, value: float) -> None:
        arena = self._arena
        if arena is None:
            self._synced = value
        else:
            arena.synced[self._slot] = value

    # -- lifecycle queries ---------------------------------------------
    @property
    def completed(self) -> bool:
        return self.end_time is not None

    @property
    def active(self) -> bool:
        """True when the flow competes for bandwidth right now."""
        return self.end_time is None and not self.gated

    def progress(self) -> float:
        """Fraction of bytes delivered so far, in [0, 1]."""
        return 1.0 - self.remaining / self.size

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
