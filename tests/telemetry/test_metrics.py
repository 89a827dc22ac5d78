"""Counters, gauges, and histograms: the Prometheus-style data model."""

import json
import math

import pytest

from repro.telemetry import (
    DEFAULT_SIM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_accumulates_per_label_set():
    c = Counter("requests_total")
    c.inc(app="A")
    c.inc(2.0, app="A")
    c.inc(app="B")
    assert c.value(app="A") == 3.0
    assert c.value(app="B") == 1.0
    assert c.value(app="missing") == 0.0
    assert c.total() == 4.0


def test_counter_rejects_decrease():
    c = Counter("requests_total")
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_counter_label_order_is_irrelevant():
    c = Counter("x")
    c.inc(a="1", b="2")
    assert c.value(b="2", a="1") == 1.0


def test_gauge_moves_both_ways():
    g = Gauge("active")
    g.set(5)
    g.inc()
    g.dec(2.0)
    assert g.value() == 4.0


def test_histogram_bucket_math_le_inclusive():
    """Prometheus ``le`` semantics: a value equal to a bound lands in it."""
    h = Histogram("d", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 2.0, 3.0, 10.0):
        h.observe(v)
    counts = dict(h.bucket_counts())
    assert counts[1.0] == 2  # 0.5, 1.0 (inclusive)
    assert counts[2.0] == 4  # + 1.5, 2.0
    assert counts[4.0] == 5  # + 3.0
    assert counts[math.inf] == 6  # + 10.0
    assert h.count() == 6
    assert h.total() == pytest.approx(18.0)
    assert h.mean() == pytest.approx(3.0)


def test_histogram_cumulative_counts_are_monotone():
    h = Histogram("d", buckets=DEFAULT_SIM_BUCKETS)
    for v in (1e-5, 3e-4, 0.02, 0.3, 7.0, 100.0):
        h.observe(v)
    counts = [n for _, n in h.bucket_counts()]
    assert counts == sorted(counts)
    assert counts[-1] == 6


def test_histogram_per_label_streams_are_independent():
    h = Histogram("d", buckets=(1.0,))
    h.observe(0.5, app="A")
    h.observe(2.0, app="B")
    assert h.count(app="A") == 1
    assert h.count(app="B") == 1
    assert h.count() == 0
    assert h.mean(app="A") == pytest.approx(0.5)
    assert h.mean() is None


def test_histogram_validates_bounds():
    with pytest.raises(ValueError):
        Histogram("d", buckets=())
    with pytest.raises(ValueError):
        Histogram("d", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("d", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("d", buckets=(1.0, math.inf))


def test_registry_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    a = reg.counter("c", "help text")
    b = reg.counter("c")
    assert a is b
    assert reg.get("c") is a
    assert reg.get("missing") is None


def test_registry_rejects_kind_mismatch():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_registry_snapshot_is_json_serializable():
    reg = MetricsRegistry()
    reg.counter("c").inc(app="A")
    reg.gauge("g").set(2.5)
    reg.histogram("h", buckets=(1.0,)).observe(0.5)
    snap = reg.snapshot()
    text = json.dumps(snap)  # must not raise
    assert "+Inf" in text
    assert snap["c"]["kind"] == "counter"
    assert snap["h"]["samples"][0]["count"] == 1


# -- bound label handles --------------------------------------------------------
def test_bound_handles_and_kwargs_hit_the_same_series():
    reg = MetricsRegistry()
    counter = reg.counter("c")
    gauge = reg.gauge("g")
    hist = reg.histogram("h", buckets=(1.0, 2.0))
    # Two labels in either order, and a non-string value: one series.
    c = counter.labels(kind="all_reduce", app=7)
    c.inc()
    counter.inc(2, app="7", kind="all_reduce")
    c.inc(0.5)
    assert counter.value(app=7, kind="all_reduce") == 3.5
    assert len(counter.samples()) == 1
    g = gauge.labels(job="A")
    g.set(4)
    gauge.inc(job="A")
    assert gauge.value(job="A") == 5.0
    g.set(3)
    assert gauge.value(job="A") == 3.0 and len(gauge.samples()) == 1
    h = hist.labels()
    h.observe(0.5)
    hist.observe(1.5)
    h.observe(9.0)
    assert hist.count() == 3 and hist.total() == 11.0
    assert hist.bucket_counts() == [(1.0, 1), (2.0, 2), (math.inf, 3)]
    with pytest.raises(ValueError):
        c.inc(-1)


def test_binding_registers_no_series():
    """A series appears with its first update, in either form — handles
    resolved at construction must not change what is exported."""
    reg = MetricsRegistry()
    handles = [
        reg.counter("c").labels(job="A"),
        reg.gauge("g").labels(),
        reg.histogram("h").labels(job="A"),
    ]
    assert all(m["samples"] == [] for m in reg.snapshot().values())
    handles[0].inc()
    assert reg.snapshot()["c"]["samples"] == [
        {"labels": {"job": "A"}, "value": 1.0}
    ]
