"""Compiled flow-program cache for repeated collectives.

A *flow program* is the fully-resolved, reusable part of a collective
launch: the step count and the list of transfers an algorithm reads off
its compiled plan for (collective kind, sizes, schedule, channels).
Traffic-generator loops issue the same collective on the same
strategy thousands of times; resolving the program each launch is pure
waste, so the launch paths (``ServiceCommunicator`` per-rank launch and
the baseline ``NcclCommunicator``) consult a :class:`FlowProgramCache` and
only fall back to the algorithm when the key is new.

Keys must capture *everything* the compiled program depends on, and no
more: route ids pick paths at injection, not what is transferred, so a
route-only reconfiguration reuses the program.

The cache holds what is transferred, never where it goes.  Paths belong
to the strategy version's
:class:`~repro.transport.connections.ConnectionTable`: its connections
(one per edge and channel, pinned at establishment) and, per rank, the
routed launch batch (``(nbytes, path, channel, rank)`` per transfer)
of the last program that rank launched.  The table empties both when
the routing epoch moves and at teardown, so a hit here plus a
remembered batch there is a launch that resolves nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, TypeVar

T = TypeVar("T")

#: Compiled programs one cache keeps (least recently used are evicted).
PROGRAM_CACHE_SIZE = 256


class FlowProgramCache:
    """A small LRU cache mapping program keys to compiled programs.

    Values are treated as immutable by convention (callers store tuples);
    the same object is handed back on every hit.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, compile: Callable[[], T]) -> T:
        """Return the cached program for ``key``, compiling on first use."""
        entry = self._entries.get(key)
        if entry is not None or key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry  # type: ignore[return-value]
        value = compile()
        self._entries[key] = value
        self.misses += 1
        if len(self._entries) > PROGRAM_CACHE_SIZE:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
