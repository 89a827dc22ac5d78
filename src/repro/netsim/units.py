"""Unit conventions and conversion helpers for the network simulator.

Internally the simulator always works in **bytes** and **seconds**.  The
paper (and networking practice) mixes decimal units: link speeds are quoted
in Gbps (1e9 bits per second), collective bandwidth in GB/s (1e9 bytes per
second, following the nccl-tests convention), and buffer sizes in binary
KB/MB (as the x axis of Figure 6 uses 32KB...512MB power-of-two sizes).

These helpers keep the conversions explicit at the call site, which avoids
the classic factor-of-8 and 1000-vs-1024 mistakes.
"""

from __future__ import annotations

# --- sizes (binary, matching the 32KB..512MB axis of Figure 6) -------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

# Convenience aliases used throughout the experiment configs.
KB = KIB
MB = MIB
GB = GIB

# --- time -------------------------------------------------------------------
USEC = 1e-6
MSEC = 1e-3
SEC = 1.0


def gbps(value: float) -> float:
    """Convert a link speed in gigabits per second to bytes per second."""
    return value * 1e9 / 8.0


def gBps(value: float) -> float:
    """Convert a bandwidth in gigabytes per second (decimal) to bytes/s."""
    return value * 1e9


def to_gBps(bytes_per_second: float) -> float:
    """Convert bytes/s into the GB/s figure reported by nccl-tests."""
    return bytes_per_second / 1e9


def format_size(num_bytes: int) -> str:
    """Format a byte count the way the paper labels its x axis.

    >>> format_size(32 * 1024)
    '32KB'
    >>> format_size(512 * 1024 * 1024)
    '512MB'
    """
    for suffix, factor in (("GB", GIB), ("MB", MIB), ("KB", KIB)):
        if num_bytes >= factor and num_bytes % factor == 0:
            return f"{num_bytes // factor}{suffix}"
    if num_bytes >= MIB:
        return f"{num_bytes / MIB:.1f}MB"
    if num_bytes >= KIB:
        return f"{num_bytes / KIB:.1f}KB"
    return f"{num_bytes}B"
