"""Counters, gauges, and histograms stamped in simulation time.

The registry follows the Prometheus data model — a metric has a name, a
help string, and one sample per label set — but values are driven by the
simulated clock (bytes moved, barrier stall seconds), with one deliberate
exception: wall-clock histograms such as the shim->service IPC hop, which
measure the *reproduction's* processing cost rather than modelled time.

Metric objects are cheap dictionaries.  Every update has two forms that
hit the same series: the kwargs form (``counter.inc(job="a")``), which
builds the label key on each call, and a *bound handle*
(``counter.labels(job="a")`` -> ``handle.inc(n)``), which built it once.
The rule for handles: resolve at construction (of the per-job or
per-communicator owner), never inside a per-flow loop.  Binding registers
nothing — a series appears with its first update in either form.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

LabelKey = Tuple[Tuple[str, str], ...]

#: Default buckets for simulated-time durations (seconds).  Collectives in
#: the reproduced scenarios span ~100us (small ops) to ~10s (large jobs).
DEFAULT_SIM_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Buckets for wall-clock measurements of the reproduction itself
#: (command-queue dispatch, policy compute), in seconds.
WALL_CLOCK_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 1e-2, 0.1, 1.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    # Hot path: flow lifecycle counters carry zero or one label.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value, one stream per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, **labels: object) -> "BoundCounter":
        return BoundCounter(self, _label_key(labels))

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self, **labels: object) -> float:
        """Sum of every series, or of those whose label sets include
        ``labels`` (``total(app="a")`` adds up app ``a``'s series)."""
        wanted = set(_label_key(labels))
        return sum(v for key, v in self._values.items() if wanted.issubset(key))

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        return [(dict(key), value) for key, value in sorted(self._values.items())]


class Gauge:
    """A value that can go up and down (active flows, live versions)."""

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, **labels: object) -> "BoundGauge":
        return BoundGauge(self, _label_key(labels))

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        return [(dict(key), value) for key, value in sorted(self._values.items())]


class _HistogramState:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram:
    """Bucketed distribution with Prometheus ``le`` (inclusive) semantics."""

    kind = "histogram"

    def __init__(self, name: str, help: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("the +Inf bucket is implicit; do not pass it")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._states: Dict[LabelKey, _HistogramState] = {}

    def _observe(self, key: LabelKey, value: float, n: int) -> None:
        """``n`` observations of ``value``, with one bucket search."""
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState(len(self.buckets))
        # First bucket whose upper bound is >= value (le semantics).
        index = bisect.bisect_left(self.buckets, value)
        state.bucket_counts[index] += n
        state.count += n
        for _ in range(n):  # one addition each: the sum stays bit-equal
            state.sum += value

    def observe(self, value: float, **labels: object) -> None:
        self._observe(_label_key(labels), value, 1)

    def labels(self, **labels: object) -> "BoundHistogram":
        return BoundHistogram(self, _label_key(labels))

    def count(self, **labels: object) -> int:
        state = self._states.get(_label_key(labels))
        return state.count if state else 0

    def total(self, **labels: object) -> float:
        state = self._states.get(_label_key(labels))
        return state.sum if state else 0.0

    def mean(self, **labels: object) -> Optional[float]:
        state = self._states.get(_label_key(labels))
        if state is None or state.count == 0:
            return None
        return state.sum / state.count

    def quantile(self, q: float, **labels: object) -> float:
        """Estimate of the ``q``-quantile of one series, as Prometheus
        ``histogram_quantile`` computes it: linear interpolation within the
        bucket holding rank ``q * count`` (the first bucket starts at 0),
        the last finite bound when that rank falls in +Inf, and 0.0 for an
        empty series."""
        state = self._states.get(_label_key(labels))
        if state is None or state.count == 0:
            return 0.0
        rank = q * state.count
        below, lower = 0, 0.0
        for upper, n in zip(self.buckets, state.bucket_counts):
            if below + n >= rank:
                return lower + (upper - lower) * (rank - below) / n if n else lower
            below, lower = below + n, upper
        return self.buckets[-1]

    def bucket_counts(self, **labels: object) -> List[Tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs, ending with +Inf."""
        state = self._states.get(_label_key(labels))
        counts = state.bucket_counts if state else [0] * (len(self.buckets) + 1)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            cumulative.append((bound, running))
        cumulative.append((math.inf, running + counts[-1]))
        return cumulative

    def samples(self) -> List[Tuple[Dict[str, str], _HistogramState]]:
        return [(dict(key), state) for key, state in sorted(self._states.items())]


class BoundCounter:
    """One label set of a :class:`Counter`, resolved once."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Counter, key: LabelKey) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self._metric.name} cannot decrease")
        values = self._metric._values
        values[self._key] = values.get(self._key, 0.0) + amount


class BoundGauge:
    """One label set of a :class:`Gauge`, resolved once."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Gauge, key: LabelKey) -> None:
        self._metric = metric
        self._key = key

    def set(self, value: float) -> None:
        self._metric._values[self._key] = float(value)


class BoundHistogram:
    """One label set of a :class:`Histogram`, resolved once."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Histogram, key: LabelKey) -> None:
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value, 1)

    def observe_run(self, value: float, n: int) -> None:
        """``n`` observations of one value."""
        self._metric._observe(self._key, value, n)


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home of every metric in one telemetry hub."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, *args)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        if buckets is None:
            buckets = DEFAULT_SIM_BUCKETS
        return self._get_or_create(Histogram, name, help, buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """All metrics, in registration order."""
        return list(self._metrics.values())

    def counters(self) -> Dict[str, Counter]:
        return {m.name: m for m in self._metrics.values() if isinstance(m, Counter)}

    def histograms(self) -> Dict[str, Histogram]:
        return {m.name: m for m in self._metrics.values() if isinstance(m, Histogram)}

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of every metric and sample."""
        out: Dict[str, object] = {}
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                samples = [
                    {
                        "labels": labels,
                        "count": state.count,
                        "sum": state.sum,
                        "buckets": [
                            ["+Inf" if math.isinf(le) else le, n]
                            for le, n in metric.bucket_counts(**labels)
                        ],
                    }
                    for labels, state in metric.samples()
                ]
            else:
                samples = [
                    {"labels": labels, "value": value}
                    for labels, value in metric.samples()
                ]
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return out
