"""The persistent tuning table produced by the offline planner.

Entries are keyed by ``(collective kind, world size, message-size bucket,
topology fingerprint)`` — everything the best static choice depends on —
and record the winning candidate plus its predicted cost.  Buckets are
power-of-two exponents (sizes in ``(2^(k-1), 2^k]`` share bucket ``k``),
matching the Figure 6 sweep axis.

The table round-trips through JSON (:meth:`TuningTable.to_json` /
:meth:`TuningTable.from_json`) so a provider can plan once per fabric and
ship the result; lookups count hits and misses for the
``mccs_autotune_table_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

TABLE_FORMAT_VERSION = 1


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

    @classmethod
    def decode(cls, text: str) -> "TableKey":
        kind, world, bucket, fingerprint = text.split("|", 3)
        return cls(
            kind=kind, world=int(world), bucket=int(bucket),
            fingerprint=fingerprint,
        )


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

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "format_version": TABLE_FORMAT_VERSION,
            "entries": {
                key.encode(): {
                    "algorithm": entry.algorithm,
                    "channels": entry.channels,
                    "ring": list(entry.ring),
                    "chunk_bytes": entry.chunk_bytes,
                    "predicted_seconds": entry.predicted_seconds,
                    "candidates_evaluated": entry.candidates_evaluated,
                }
                for key, entry in self._entries.items()
            },
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TuningTable":
        version = data.get("format_version")
        if version != TABLE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported tuning-table format {version!r}; "
                f"expected {TABLE_FORMAT_VERSION}"
            )
        table = cls()
        for encoded, raw in data.get("entries", {}).items():
            table.put(
                TableKey.decode(encoded),
                TableEntry(
                    algorithm=str(raw["algorithm"]),
                    channels=int(raw["channels"]),
                    ring=tuple(int(r) for r in raw["ring"]),
                    chunk_bytes=int(raw["chunk_bytes"]),
                    predicted_seconds=float(raw["predicted_seconds"]),
                    candidates_evaluated=int(raw.get("candidates_evaluated", 0)),
                ),
            )
        return table
