"""Bounded ring buffers for telemetry series.

Every unbounded list in a long-running service is a memory leak waiting
to happen; the telemetry layer stores all of its series — link-utilization
samples, causal trees, reconfiguration sessions, decision events — in
fixed-capacity buffers with oldest-first eviction, and keeps count of what
it dropped so exporters can say "truncated" instead of silently lying
about coverage.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterator, List, TypeVar

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """Fixed-capacity FIFO buffer with oldest-first eviction."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self.evicted = 0

    def append(self, item: T) -> None:
        self._items.append(item)
        while len(self._items) > self.capacity:
            self._items.popleft()
            self.evicted += 1

    def to_list(self) -> List[T]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __getitem__(self, index):
        return list(self._items)[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingBuffer(len={len(self._items)}, capacity={self.capacity}, "
            f"evicted={self.evicted})"
        )
