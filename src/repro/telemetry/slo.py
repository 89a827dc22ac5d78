"""Per-tenant SLO accounting: rolling latency windows.

The paper's managed-service framing (§4.3, §6.4) makes the provider — not
the tenant — responsible for per-tenant performance.  :class:`SloTracker`
keeps the books: per tenant, rolling p50/p95/p99 collective latency,
goodput, and deadline-miss / retry / shed / abort counts.  The registry's
histograms are bucketed, so the tracker keeps its own bounded raw windows
(:data:`SLO_WINDOW` samples per tenant) to compute true percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

from .ringbuffer import RingBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import MetricsRegistry

#: Rolling-window capacity (latency samples) per tenant.
SLO_WINDOW = 256


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(int(round(q * len(ordered) + 0.5)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


@dataclass
class _TenantBook:
    """One tenant's rolling accounts."""

    latencies: RingBuffer
    completed: int = 0
    bytes_moved: int = 0
    busy_seconds: float = 0.0
    deadline_misses: int = 0
    retries: int = 0
    sheds: int = 0
    aborts: int = 0


class SloTracker:
    """Rolling per-tenant SLO accounts."""

    def __init__(self, metrics: "MetricsRegistry") -> None:
        self._books: Dict[str, _TenantBook] = {}
        #: Resolves a tenant to its QoS class; the deployment installs the
        #: admission controller's ``class_of`` when admission is armed.
        self.class_resolver: Callable[[str], str] = lambda tenant: "normal"
        self._p50 = metrics.gauge(
            "mccs_slo_latency_p50_seconds",
            "Rolling-window median collective latency, by tenant.",
        )
        self._p99 = metrics.gauge(
            "mccs_slo_latency_p99_seconds",
            "Rolling-window p99 collective latency, by tenant.",
        )
        self._goodput = metrics.gauge(
            "mccs_slo_goodput_bytes_per_second",
            "Completed collective payload over busy time, by tenant.",
        )

    # ------------------------------------------------------------------
    def _book(self, tenant: str) -> _TenantBook:
        book = self._books.get(tenant)
        if book is None:
            book = self._books[tenant] = _TenantBook(latencies=RingBuffer(SLO_WINDOW))
        return book

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_completion(self, tenant: str, duration_s: float, nbytes: int) -> None:
        book = self._book(tenant)
        book.latencies.append(duration_s)
        book.completed += 1
        book.bytes_moved += nbytes
        book.busy_seconds += duration_s

    def record_deadline_miss(self, tenant: str) -> None:
        self._book(tenant).deadline_misses += 1

    def record_retry(self, tenant: str) -> None:
        self._book(tenant).retries += 1

    def record_shed(self, tenant: str) -> None:
        self._book(tenant).sheds += 1

    def record_abort(self, tenant: str) -> None:
        self._book(tenant).aborts += 1

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def percentiles(self, tenant: str) -> Dict[str, float]:
        book = self._books.get(tenant)
        if book is None or len(book.latencies) == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(book.latencies)
        return {
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
        }

    def tenants(self) -> List[str]:
        return sorted(self._books)

    def publish(self) -> None:
        """Refresh the Prometheus gauges from the rolling windows."""
        for tenant in self.tenants():
            book = self._books[tenant]
            pct = self.percentiles(tenant)
            self._p50.set(pct["p50"], tenant=tenant)
            self._p99.set(pct["p99"], tenant=tenant)
            goodput = (
                book.bytes_moved / book.busy_seconds
                if book.busy_seconds > 0
                else 0.0
            )
            self._goodput.set(goodput, tenant=tenant)

    def report(self) -> Dict[str, object]:
        """JSON-ready per-tenant account statement."""
        self.publish()
        out: Dict[str, object] = {}
        for tenant in self.tenants():
            book = self._books[tenant]
            pct = self.percentiles(tenant)
            out[tenant] = {
                "qos_class": self.class_resolver(tenant),
                "completed": book.completed,
                "bytes_moved": book.bytes_moved,
                "goodput_bytes_per_s": (
                    book.bytes_moved / book.busy_seconds
                    if book.busy_seconds > 0
                    else 0.0
                ),
                "latency_s": pct,
                "window_samples": len(book.latencies),
                "deadline_misses": book.deadline_misses,
                "retries": book.retries,
                "sheds": book.sheds,
                "aborts": book.aborts,
            }
        return out
