"""The tuning table the offline planner fills and the online tuner reads.

Entries are keyed by ``(collective kind, world size, message-size bucket,
topology fingerprint)`` — everything the best static choice depends on —
and record the winning candidate plus its predicted cost.  Buckets are
power-of-two exponents (sizes in ``(2^(k-1), 2^k]`` share bucket ``k``),
matching the Figure 6 sweep axis.

The table lives in memory for the deployment's lifetime, so every
communicator with the same key reuses one planning result; lookups count
hits and misses for the ``mccs_autotune_table_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple


def size_bucket(nbytes: int) -> int:
    """Power-of-two bucket index: sizes in ``(2^(k-1), 2^k]`` map to ``k``."""
    if nbytes <= 0:
        raise ValueError("size must be positive")
    return int(nbytes - 1).bit_length()


@dataclass(frozen=True)
class TableKey:
    """Everything the best static strategy choice depends on."""

    kind: str
    world: int
    bucket: int
    fingerprint: str

    def encode(self) -> str:
        return f"{self.kind}|{self.world}|{self.bucket}|{self.fingerprint}"


@dataclass(frozen=True)
class TableEntry:
    """The planner's pick for one key."""

    algorithm: str
    channels: int
    ring: Tuple[int, ...]
    chunk_bytes: int
    predicted_seconds: float
    candidates_evaluated: int = 0

    def signature(self) -> Tuple[str, int, Tuple[int, ...]]:
        """The runtime-distinguishable part (what a bandit arm is keyed by)."""
        return (self.algorithm, self.channels, tuple(self.ring))


class TuningTable:
    """Key -> best-candidate map with hit/miss accounting."""

    def __init__(self) -> None:
        self._entries: Dict[TableKey, TableEntry] = {}
        self.hits = 0
        self.misses = 0

    def put(self, key: TableKey, entry: TableEntry) -> None:
        self._entries[key] = entry

    def get(self, key: TableKey) -> Optional[TableEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def lookup(
        self, kind: str, world: int, nbytes: int, fingerprint: str
    ) -> Optional[TableEntry]:
        return self.get(
            TableKey(
                kind=kind, world=world, bucket=size_bucket(nbytes),
                fingerprint=fingerprint,
            )
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[TableKey, TableEntry]]:
        return iter(sorted(self._entries.items(), key=lambda kv: kv[0].encode()))

    def stats(self) -> Dict[str, int]:
        return {"size": len(self._entries), "hits": self.hits, "misses": self.misses}
