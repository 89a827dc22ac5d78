"""Traffic generator replaying training traces (§6.1).

"In addition to AllReduce and AllGather benchmarks, we evaluate training
workloads using a traffic generator with profile traces.  The traffic
generator is implemented with Rust using the MCCS library."  Ours replays
a :class:`~repro.workloads.traces.TrainingTrace` through either library —
NCCL (:class:`NcclIssuer`) or MCCS (:class:`MccsIssuer`) — pacing itself
exactly like a training loop: compute on the application stream, then a
collective, then the next step once the collective completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol

from ..baselines.nccl import NcclCommunicator
from ..cluster.gpu import PCIE_GBPS, Stream
from ..collectives.types import Collective
from ..core.shim import MccsClient, MccsCommunicator
from ..netsim.engine import FlowSimulator
from .traces import TrainingTrace


class CollectiveIssuer(Protocol):
    """Either library, seen through the one call the generator needs."""

    def issue(
        self,
        kind: Collective,
        out_bytes: int,
        stream: Stream,
        on_complete: Callable[[float], None],
    ) -> None:  # pragma: no cover - protocol
        ...


class NcclIssuer:
    """Replay through the NCCL-like baseline library."""

    def __init__(self, comm: NcclCommunicator) -> None:
        self.comm = comm

    def issue(
        self,
        kind: Collective,
        out_bytes: int,
        stream: Stream,
        on_complete: Callable[[float], None],
    ) -> None:
        method = {
            Collective.ALL_REDUCE: self.comm.all_reduce,
            Collective.ALL_GATHER: self.comm.all_gather,
            Collective.REDUCE_SCATTER: self.comm.reduce_scatter,
        }[kind]
        method(out_bytes, stream=stream, on_complete=lambda op, now: on_complete(now))


class MccsIssuer:
    """Replay through the MCCS shim."""

    def __init__(self, client: MccsClient, comm: MccsCommunicator) -> None:
        self.client = client
        self.comm = comm

    def issue(
        self,
        kind: Collective,
        out_bytes: int,
        stream: Stream,
        on_complete: Callable[[float], None],
    ) -> None:
        method = {
            Collective.ALL_REDUCE: self.client.all_reduce,
            Collective.ALL_GATHER: self.client.all_gather,
            Collective.REDUCE_SCATTER: self.client.reduce_scatter,
        }[kind]
        method(
            self.comm,
            out_bytes,
            stream=stream,
            on_complete=lambda inst, now: on_complete(now),
        )


@dataclass
class GeneratorStats:
    """Progress of one replayed job."""

    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    iteration_times: List[float] = field(default_factory=list)
    collectives_issued: int = 0
    compute_seconds: float = 0.0
    memcpy_seconds: float = 0.0

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    def jct(self) -> float:
        """Job completion time."""
        if self.start_time is None or self.finish_time is None:
            raise ValueError("job has not finished")
        return self.finish_time - self.start_time

    def iteration_durations(self) -> List[float]:
        """Per-iteration wall times (first iteration measured from start)."""
        if self.start_time is None:
            return []
        times = [self.start_time] + self.iteration_times
        return [b - a for a, b in zip(times, times[1:])]

    def throughput_timeline(self) -> List[tuple]:
        """(time, iterations/s) samples, one per completed iteration."""
        out = []
        for t, dt in zip(self.iteration_times, self.iteration_durations()):
            if dt > 0:
                out.append((t, 1.0 / dt))
        return out


class TrafficGenerator:
    """Replays one trace on one communicator."""

    def __init__(
        self,
        sim: FlowSimulator,
        issuer: CollectiveIssuer,
        trace: TrainingTrace,
        stream: Stream,
        *,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.issuer = issuer
        self.trace = trace
        self.stream = stream
        self.name = name or trace.name
        self.pcie_rate = PCIE_GBPS * 1e9
        self.stats = GeneratorStats()
        self._step = 0
        self._on_finish: Optional[Callable[["TrafficGenerator", float], None]] = None

    def start(
        self,
        at: Optional[float] = None,
        on_finish: Optional[Callable[["TrafficGenerator", float], None]] = None,
    ) -> None:
        """Begin replay at absolute time ``at`` (default: now)."""
        self._on_finish = on_finish
        when = self.sim.now if at is None else at
        self.sim.schedule(when, self._begin)

    def _begin(self) -> None:
        self.stats.start_time = self.sim.now
        self._advance()

    def _advance(self) -> None:
        """Enqueue steps until the next collective (the next yield point)."""
        steps = self.trace.steps
        while self._step < len(steps):
            step = steps[self._step]
            self._step += 1
            if step.memcpy_bytes > 0:
                duration = step.memcpy_bytes / self.pcie_rate
                self.stream.compute(duration, name=f"{self.name}.memcpy")
                self.stats.memcpy_seconds += duration
            if step.compute_seconds > 0:
                self.stream.compute(step.compute_seconds, name=f"{self.name}.compute")
                self.stats.compute_seconds += step.compute_seconds
            if step.collective is not None:
                self.stats.collectives_issued += 1
                completed_step = self._step  # 1-based index of this step
                self.issuer.issue(
                    step.collective,
                    step.out_bytes,
                    self.stream,
                    lambda now, s=completed_step: self._collective_done(s, now),
                )
                return
        # Trace tail had no further collectives: finish after the stream
        # drains any remaining compute.
        self.stream.synchronize(self._finish)

    def _collective_done(self, step_index: int, now: float) -> None:
        if step_index % self.trace.steps_per_iteration == 0:
            self.stats.iteration_times.append(now)
        self._advance()

    def _finish(self, now: float) -> None:
        self.stats.finish_time = now
        if self._on_finish is not None:
            self._on_finish(self, now)
