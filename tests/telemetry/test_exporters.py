"""Exporters: Prometheus text, JSON snapshot, Chrome trace-event golden."""

import json
import pathlib

from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    Span,
    chrome_trace,
    prometheus_text,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_chrome_trace.json"


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def test_prometheus_counter_and_gauge_lines():
    reg = MetricsRegistry()
    reg.counter("mccs_flows_total", "Flows injected.").inc(2, job="A")
    reg.gauge("mccs_active_flows").set(1.5)
    text = prometheus_text(reg)
    assert "# HELP mccs_flows_total Flows injected.\n" in text
    assert "# TYPE mccs_flows_total counter\n" in text
    assert 'mccs_flows_total{job="A"} 2\n' in text
    assert "# TYPE mccs_active_flows gauge\n" in text
    assert "mccs_active_flows 1.5\n" in text


def test_prometheus_histogram_exposition():
    reg = MetricsRegistry()
    h = reg.histogram("d_seconds", "Durations.", buckets=(0.1, 1.0))
    h.observe(0.05, app="A")
    h.observe(0.5, app="A")
    h.observe(5.0, app="A")
    text = prometheus_text(reg)
    assert '# TYPE d_seconds histogram' in text
    assert 'd_seconds_bucket{app="A",le="0.1"} 1\n' in text
    assert 'd_seconds_bucket{app="A",le="1"} 2\n' in text
    assert 'd_seconds_bucket{app="A",le="+Inf"} 3\n' in text
    assert 'd_seconds_sum{app="A"} 5.55' in text
    assert 'd_seconds_count{app="A"} 3\n' in text


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("c").inc(app='we"ird\\app')
    text = prometheus_text(reg)
    assert 'app="we\\"ird\\\\app"' in text


def test_prometheus_unsampled_counter_renders_zero():
    reg = MetricsRegistry()
    reg.counter("mccs_reconfigs_total", "Reconfigurations.")
    assert "mccs_reconfigs_total 0\n" in prometheus_text(reg)


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------
def test_json_snapshot_shape_and_serializability(hub):
    hub.metrics.counter("c").inc()
    trace = hub.causal.open(
        0.0, tenant="A", comm_id="comm0", seq=0, kind="op", nbytes=8
    )
    hub.causal.close(trace, 1.0, "completed")
    hub.events.log(0.5, "policy_run", policy="ffa")
    snap = hub.to_json()
    json.dumps(snap)  # must not raise
    # No SLO account and no flight dump yet: those sections are absent.
    assert set(snap) == {"metrics", "spans", "events", "links"}
    assert snap["links"] == {}
    assert snap["spans"]["records"][0]["name"] == "op comm0.s0"
    assert snap["events"]["records"][0]["kind"] == "policy_run"
    assert snap["spans"]["evicted"] == 0


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def span(span_id, name, start, end, category, *, parent=None, events=None, **attrs):
    """One export record, as the hub's window would render it."""
    return Span(span_id, name, start, end=end, category=category,
                parent_id=parent, attrs=attrs, events=events)


def build_trace_fixture():
    """A deterministic two-collective + reconfig span tree."""
    tracks = {"app": "tenantA", "comm": "comm0"}
    spans = [
        span(1, "allreduce comm0.s0", 0.0, 0.005, "collective", events=[
            ("rank_launch", 0.001, {"rank": 0, "version": 0}),
            ("first_flow_start", 0.001, {}),
            ("last_flow_end", 0.005, {}),
        ], **tracks, seq=0),
        span(2, "queued", 0.0, 0.001, "phase", parent=1, **tracks),
        span(3, "network", 0.001, 0.005, "phase", parent=1, **tracks),
        span(4, "reconfig comm0 v0->v1", 0.006, 0.0062, "reconfig", events=[
            ("barrier_resolved", 0.0061, {"max_seq": 0}),
            ("rank_applied", 0.0062, {"rank": 0}),
        ], **tracks),
        span(5, "barrier", 0.006, 0.0061, "reconfig", parent=4, **tracks),
        span(6, "allreduce comm0.s1", 0.007, None, "collective", events=[
            ("rank_launch", 0.0071, {"rank": 0, "version": 1}),
        ], **tracks, seq=1),
    ]
    events = EventLog()
    events.log(0.006, "reconfig_issued", "ring reversed", comm=0)
    return spans, events


def test_chrome_trace_matches_golden_file():
    spans, events = build_trace_fixture()
    rendered = json.dumps(chrome_trace(spans, events), indent=2, sort_keys=True)
    assert rendered + "\n" == GOLDEN.read_text()


def test_chrome_trace_structure():
    spans, events = build_trace_fixture()
    trace = chrome_trace(spans, events)
    evs = trace["traceEvents"]
    complete = [e for e in evs if e["ph"] == "X"]
    instants = [e for e in evs if e["ph"] == "i"]
    metadata = [e for e in evs if e["ph"] == "M"]

    # Unfinished spans are skipped; their instants still show up.
    assert sorted(e["name"] for e in complete) == [
        "allreduce comm0.s0", "barrier", "network", "queued",
        "reconfig comm0 v0->v1",
    ]
    assert any(e["name"] == "rank_launch" and e["args"].get("version") == 1
               for e in instants)

    # Everything for tenantA lands on one named process/track pair.
    names = {(m["name"], m["args"]["name"]) for m in metadata}
    assert ("process_name", "tenantA") in names
    assert ("thread_name", "comm0") in names
    assert ("process_name", "control-plane") in names

    root = next(e for e in complete if e["name"] == "allreduce comm0.s0")
    barrier = next(e for e in complete if e["name"] == "barrier")
    assert root["ts"] == 0.0 and root["dur"] == 5000.0  # microseconds
    assert barrier["ts"] == 6000.0 and barrier["dur"] == 100.0
    assert barrier["args"]["parent_id"] == next(
        e for e in complete if e["name"].startswith("reconfig")
    )["args"]["span_id"]

    # Output is sorted by timestamp, so goldens are stable.
    body = [e for e in evs if e["ph"] != "M"]
    assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)


def test_chrome_trace_without_events_omits_control_track():
    spans, _ = build_trace_fixture()
    trace = chrome_trace(spans)
    metadata_names = {
        e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
    }
    assert "control-plane" not in metadata_names
