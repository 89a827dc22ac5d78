"""Acceptance: the Figure 7 run exports a loadable Chrome trace with the
reconfiguration barrier stall visible as a span."""

import json

import pytest

from repro.experiments.fig07_reconfig import run_fig07


@pytest.fixture(scope="module")
def timeline():
    return run_fig07(duration=16.0, bg_start=5.0, reconfig_at=10.0)


def test_fig07_returns_its_telemetry(timeline):
    assert timeline.telemetry is not None
    assert timeline.reconfig_done is not None
    hub = timeline.telemetry
    assert hub.metrics.histograms()["mccs_barrier_stall_seconds"].count() == 1
    # Collectives are rendered from the causal trees; the recorder holds
    # the one reconfiguration (root + barrier).
    assert any(s.category == "collective" for s in hub.exported_spans())
    assert [s.category for s in hub.spans] == ["reconfig", "reconfig"]


def test_fig07_chrome_trace_loads_and_shows_barrier(timeline, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(timeline.telemetry.to_chrome_trace()))
    trace = json.loads(path.read_text())  # what chrome://tracing would load

    events = trace["traceEvents"]
    assert all({"ph", "pid", "tid", "name"} <= set(e) for e in events)
    complete = [e for e in events if e["ph"] == "X"]

    barrier = [e for e in complete if e["name"] == "barrier"]
    assert len(barrier) == 1
    assert barrier[0]["cat"] == "reconfig"
    # The stall sits at the reconfiguration time (t=10 s -> 1e7 us) and
    # has a visible extent.
    assert barrier[0]["ts"] == pytest.approx(10.0e6, rel=0.01)
    assert barrier[0]["dur"] > 0
    # Nested under the reconfig root span, alongside the collectives.
    root = [e for e in complete if e["name"].startswith("reconfig comm")]
    assert len(root) == 1
    assert barrier[0]["args"]["parent_id"] == root[0]["args"]["span_id"]
    assert any(e["cat"] == "collective" for e in complete)


def test_fig07_link_series_show_background_contention(timeline):
    network = timeline.telemetry.network
    assert network is not None
    series = network.link_series("sw1->sw2")
    assert series, "the loaded link must have been sampled"
    times = [t for t, _ in series]
    assert times == sorted(times)
