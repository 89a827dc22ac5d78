"""Chunk partitioning shared by the collective schedules.

Schedules divide each buffer into ``world`` contiguous chunks; this
computes the (possibly uneven) chunk boundaries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple


@lru_cache(maxsize=4096)
def _chunk_bounds(total: int, parts: int) -> Tuple[Tuple[int, int], ...]:
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    base, extra = divmod(total, parts)
    bounds = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


def chunk_bounds(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``total`` elements into ``parts`` contiguous (start, end) runs.

    Earlier chunks absorb the remainder, matching the convention of
    dividing a buffer as evenly as possible:

    >>> chunk_bounds(10, 4)
    [(0, 3), (3, 6), (6, 8), (8, 10)]
    """
    return list(_chunk_bounds(total, parts))

