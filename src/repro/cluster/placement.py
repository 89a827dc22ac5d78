"""Job-to-GPU placement policies for the large-scale simulation (§6.5).

The paper considers two placements: *random* ("the simulator allocates
randomly GPUs to a job") and *compact* ("the simulator assigns GPUs that
belong to the same rack to a job whenever possible").  Both operate on an
allocator that tracks which GPUs are free as jobs arrive and depart.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set

from ..netsim.errors import PlacementError
from .gpu import GpuDevice
from .specs import Cluster


class ClusterAllocator:
    """Tracks free GPUs and serves placement requests."""

    def __init__(self, cluster: Cluster, seed: int = 0) -> None:
        self.cluster = cluster
        self._free: Set[int] = {g.global_id for g in cluster.gpus}
        self._rng = random.Random(seed)
        self._jobs: Dict[str, List[int]] = {}

    @property
    def free_count(self) -> int:
        return len(self._free)

    def release(self, job_id: str) -> None:
        """Return a job's GPUs to the free pool."""
        for gpu_id in self._jobs.pop(job_id, []):
            self._free.add(gpu_id)

    # ------------------------------------------------------------------
    def place_random(self, job_id: str, num_gpus: int) -> List[GpuDevice]:
        """Uniformly random GPUs from the free pool."""
        if num_gpus > len(self._free):
            raise PlacementError(
                f"job {job_id}: need {num_gpus} GPUs, {len(self._free)} free"
            )
        chosen = self._rng.sample(sorted(self._free), num_gpus)
        self._commit(job_id, chosen)
        return [self.cluster.gpu(i) for i in chosen]

    def place_compact(self, job_id: str, num_gpus: int) -> List[GpuDevice]:
        """Prefer GPUs from as few racks (then hosts) as possible.

        Racks are considered in order of how many free GPUs they have
        (fullest first), so jobs pack into the least number of racks; ties
        are broken deterministically by rack id.
        """
        if num_gpus > len(self._free):
            raise PlacementError(
                f"job {job_id}: need {num_gpus} GPUs, {len(self._free)} free"
            )
        by_rack: Dict[int, List[int]] = {}
        for gpu_id in self._free:
            rack = self.cluster.rack_of(self.cluster.gpu(gpu_id))
            by_rack.setdefault(rack, []).append(gpu_id)
        order = sorted(by_rack, key=lambda r: (-len(by_rack[r]), r))
        chosen: List[int] = []
        for rack in order:
            # Within a rack, pack host by host so intra-host channels get
            # used before crossing hosts at all.
            rack_gpus = sorted(by_rack[rack])
            chosen.extend(rack_gpus[: num_gpus - len(chosen)])
            if len(chosen) == num_gpus:
                break
        self._commit(job_id, chosen)
        return [self.cluster.gpu(i) for i in chosen]

    def place(self, job_id: str, num_gpus: int, strategy: str) -> List[GpuDevice]:
        """Dispatch on strategy name: ``"random"`` or ``"compact"``."""
        if strategy == "random":
            return self.place_random(job_id, num_gpus)
        if strategy == "compact":
            return self.place_compact(job_id, num_gpus)
        raise ValueError(f"unknown placement strategy {strategy!r}")

    def _commit(self, job_id: str, gpu_ids: Sequence[int]) -> None:
        if job_id in self._jobs:
            raise PlacementError(f"job {job_id} already placed")
        for gpu_id in gpu_ids:
            self._free.discard(gpu_id)
        self._jobs[job_id] = list(gpu_ids)

