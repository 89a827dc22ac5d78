"""Fold a cProfile run into per-layer self time and call counts.

Self time is folded by *source path*, not by function name, so renaming
or deleting a class in ``src/repro`` cannot break the frozen harness.  C
functions (``ndarray.copy``, ``np.add``, dict methods) and generated
code (``<string>`` dataclass methods) have no source file; their self
time is charged to the layers of their callers, in proportion to the time
each caller spent in them, through the profiler's ``callers`` table.

The shares of all layers sum to 1: every profiled microsecond is some
function's self time and every function lands in exactly one layer (or
is split over its callers' layers).  cProfile adds a cost per *call* and
none inside native code, so call-heavy layers look somewhat bigger than
they are; the timed (untraced) run is the one that measures.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Tuple

from spec import LAYER_PREFIXES, LAYERS

Func = Tuple[str, int, str]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(
    os.path.dirname(os.path.dirname(BENCH_DIR)), "src", "repro"
) + os.sep


def layer_of_path(path: str) -> str:
    """Layer of a real source file."""
    if path.startswith(REPRO_DIR):
        relative = path[len(REPRO_DIR):].replace(os.sep, "/")
        for layer, prefix in LAYER_PREFIXES:
            if relative.startswith(prefix):
                return layer
        return "other"
    if path.startswith(BENCH_DIR):
        return "bench"
    return "other"


def _has_source(func: Func) -> bool:
    path = func[0]
    return not (path == "~" or path.startswith("<"))


def fold(profile: cProfile.Profile) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls of the layer's own functions)}``."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    weights: Dict[Func, Dict[str, float]] = {}

    def layers_of(func: Func, depth: int = 0) -> Dict[str, float]:
        """Layer weights (summing to 1) that ``func``'s time belongs to."""
        if _has_source(func):
            return {layer_of_path(func[0]): 1.0}
        known = weights.get(func)
        if known is not None:
            return known
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        if not callers or depth > 16:
            return {"other": 1.0}
        weights[func] = {"other": 1.0}  # cycle guard while resolving
        edge_total = sum(edge[2] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            share = edge[2] / edge_total if edge_total > 0 else 1.0 / len(callers)
            for layer, weight in layers_of(caller, depth + 1).items():
                out[layer] = out.get(layer, 0.0) + share * weight
        weights[func] = out
        return out

    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        if _has_source(func):
            layer = layer_of_path(func[0])
            seconds[layer] += tt
            calls[layer] += nc
        elif not callers:
            seconds["other"] += tt
        else:
            for caller, edge in callers.items():
                for layer, weight in layers_of(caller).items():
                    seconds[layer] += edge[2] * weight
    return {layer: (seconds[layer], calls[layer]) for layer in LAYERS}

