"""Fine-grained collective tracing (§4.3).

"The MCCS service can perform fine-grained tracing of collectives issued
by applications to determine properties of their computation and
communication patterns.  The controller consumes this data to make a
policy decision."  The time-window traffic scheduling policy (TS) is the
consumer in the paper: it "invokes MCCS tracing API and requests a trace
of a prioritized application [and] analyzes the idle cycles of the
application when it is not issuing collectives."

A :class:`TraceRecord` is six scalars, written **once**, when the
collective reaches its terminal state (completed or aborted), from the
:class:`~repro.core.communicator.CollectiveInstance`'s own timestamps;
it pins nothing.  The rich per-collective record (flows, retries,
holds, attribution) is the causal tree in :mod:`repro.telemetry.causal`; this
module is only the §4.3 query surface the policies consume.  Trace
buffers are bounded ring buffers — a long-lived service deployment cannot
keep every collective it ever carried — and a communicator owns its
buffer, so it goes when the communicator is destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..collectives.types import Collective
from ..telemetry.ringbuffer import RingBuffer

#: Per-communicator trace capacity (collectives kept).
DEFAULT_TRACE_CAPACITY = 4096


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One finished collective's lifecycle timestamps."""

    seq: int
    kind: Collective
    out_bytes: int
    issue_time: float
    #: When the collective's traffic first entered the network — of the
    #: final attempt, for a retried collective (failed attempts and
    #: back-off count as queueing, as in ``CriticalPathReport.queue_s``).
    #: None when it was aborted before any flow started.
    start_time: Optional[float]
    end_time: float

    def duration(self) -> float:
        """Issue-to-completion time (shim call to last flow drained),
        including queueing in the service."""
        return self.end_time - self.issue_time

    def network_duration(self) -> float:
        """Time the collective's traffic actually occupied the network
        (first flow start to last flow end).  Falls back to the issue
        time when no flow-start was recorded."""
        start = self.start_time
        return self.end_time - (start if start is not None else self.issue_time)

    def queue_delay(self) -> float:
        """Time between issue and the first traffic entering the network
        (stream queueing, proxy holds, datapath latency)."""
        if self.start_time is None:
            return 0.0
        return self.start_time - self.issue_time


class CommTrace:
    """Per-communicator trace buffer with idle-cycle analysis.

    The buffer keeps the most recent :data:`DEFAULT_TRACE_CAPACITY`
    finished collectives, in completion order.
    """

    def __init__(self, comm_id: int) -> None:
        self.comm_id = comm_id
        self._records: RingBuffer[TraceRecord] = RingBuffer(
            DEFAULT_TRACE_CAPACITY
        )

    @property
    def records(self) -> List[TraceRecord]:
        """Retained records, oldest first."""
        return self._records.to_list()

    def append(self, record: TraceRecord) -> None:
        """Retain one finished collective (called at its terminal state)."""
        self._records.append(record)

    def busy_intervals(self) -> List[Tuple[float, float]]:
        """Merged [start, end) intervals during which collectives ran.

        Intervals run from the moment traffic could enter the network
        (start_time when known, otherwise issue time) to completion.
        """
        spans = sorted(
            (r.start_time if r.start_time is not None else r.issue_time, r.end_time)
            for r in self._records
        )
        merged: List[Tuple[float, float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def idle_intervals(self) -> List[Tuple[float, float]]:
        """Gaps between consecutive busy intervals (the compute phases)."""
        busy = self.busy_intervals()
        return [
            (busy[i][1], busy[i + 1][0])
            for i in range(len(busy) - 1)
            if busy[i + 1][0] > busy[i][1]
        ]

    def communication_period(self) -> Optional[Tuple[float, float]]:
        """Estimated (busy, idle) durations of the steady-state iteration.

        Training loops are periodic: each iteration has a communication
        burst followed by a compute (idle-for-the-network) phase.  We take
        medians over the observed intervals, which is robust to warmup
        outliers.  Returns None when there is not enough signal.
        """
        busy = self.busy_intervals()
        idle = self.idle_intervals()
        if len(busy) < 2 or not idle:
            return None
        busy_durations = sorted(e - s for s, e in busy)
        idle_durations = sorted(e - s for s, e in idle)
        return (
            busy_durations[len(busy_durations) // 2],
            idle_durations[len(idle_durations) // 2],
        )
