"""Shared result containers and text rendering for the experiment harness.

Every ``figNN`` module produces plain dataclasses and renders them with
these helpers, so benchmark output looks like the rows/series the paper
plots (mean plus a 95% interval where the paper shades one).  Output
goes to stdout; a caller that wants it elsewhere redirects stdout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Stat",
    "ascii_cdf",
    "cdf_points",
    "format_table",
    "geometric_mean",
    "print_table",
    "sparkline",
    "write_json",
]


@dataclass(frozen=True)
class Stat:
    """Mean and central 95% interval of a sample set."""

    mean: float
    lo: float
    hi: float
    n: int

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Stat":
        if not samples:
            raise ValueError("no samples")
        ordered = sorted(samples)
        n = len(ordered)

        def pct(q: float) -> float:
            if n == 1:
                return ordered[0]
            pos = q * (n - 1)
            lo_i = int(math.floor(pos))
            hi_i = min(lo_i + 1, n - 1)
            frac = pos - lo_i
            return ordered[lo_i] * (1 - frac) + ordered[hi_i] * frac

        return cls(
            mean=sum(ordered) / n, lo=pct(0.025), hi=pct(0.975), n=n
        )

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.3g}"
        return f"{self.mean:.3g} [{self.lo:.3g}, {self.hi:.3g}]"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: Optional[str] = None
) -> str:
    """Fixed-width text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: Optional[str] = None
) -> None:
    """Print a table and a blank line after it."""
    print(format_table(headers, rows, title))
    print()


def write_json(payload: Dict[str, object], path: str) -> None:
    """Write a JSON artifact (a snapshot, a Chrome trace) and say where."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def cdf_points(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs of an empirical CDF."""
    ordered = sorted(samples)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def geometric_mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return math.exp(sum(math.log(s) for s in samples) / len(samples))


def ascii_cdf(
    series: Dict[str, Sequence[float]],
    *,
    width: int = 50,
    quantiles: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
    unit: str = "x",
) -> str:
    """Text rendering of one or more CDFs, in the style of Figure 11.

    Each series gets one bar row per quantile: the bar length encodes the
    value at that quantile relative to the global maximum.
    """
    if not series:
        raise ValueError("no series")
    peak = max(max(vals) for vals in series.values() if vals)
    lines: List[str] = []
    for name, values in series.items():
        ordered = sorted(values)
        n = len(ordered)
        lines.append(f"{name}:")
        for q in quantiles:
            idx = min(int(math.ceil(q * n)) - 1, n - 1) if n else 0
            value = ordered[max(idx, 0)]
            bar = "#" * max(int(round(value / peak * width)), 1)
            lines.append(f"  p{int(q * 100):>3} {value:6.2f}{unit} {bar}")
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """One-line text sparkline (used for throughput timelines)."""
    if not values:
        return ""
    marks = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    if hi <= lo:
        return marks[-1] * len(values)
    scale = (len(marks) - 1) / (hi - lo)
    return "".join(marks[int((v - lo) * scale)] for v in values)
