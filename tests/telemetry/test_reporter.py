"""The pluggable reporter and its routing of experiment output."""

import io
import json

import pytest

from repro.telemetry import (
    BufferSink,
    Reporter,
    StreamSink,
    format_table,
    get_default_reporter,
    set_default_reporter,
)


@pytest.fixture
def buffered_reporter():
    """Install a BufferSink reporter as the default; restore afterwards."""
    reporter = Reporter(BufferSink())
    previous = set_default_reporter(reporter)
    try:
        yield reporter
    finally:
        set_default_reporter(previous)


def test_format_table_alignment():
    text = format_table(["name", "v"], [["a", 1], ["bcd", 22]], title="T")
    assert text.split("\n") == [
        "T",
        "name  v ",
        "----  --",
        "a     1 ",
        "bcd   22",
    ]


def test_reporter_table_emits_trailing_blank_line():
    sink = BufferSink()
    Reporter(sink).table(["h"], [["x"]])
    assert sink.lines == ["h", "-", "x", ""]


def test_set_default_reporter_returns_previous(buffered_reporter):
    assert get_default_reporter() is buffered_reporter
    other = Reporter(BufferSink())
    assert set_default_reporter(other) is buffered_reporter
    assert set_default_reporter(buffered_reporter) is other


def test_print_table_routes_through_default_reporter(buffered_reporter):
    from repro.experiments.report import print_table

    print_table(["a", "b"], [[1, 2]], title="caught")
    text = buffered_reporter.sink.text()
    assert "caught" in text
    assert "1  2" in text


def test_experiment_main_output_is_capturable(buffered_reporter, capsys):
    """A harness can redirect a whole figure main into a buffer."""
    from repro.experiments.fig10_dynamic import DynamicTimeline, _print

    timeline = DynamicTimeline(
        events={},
        phases=[("solo", 0.0, 1.0)],
        throughput=[],
        ffa_baseline={},
    )
    _print(timeline)
    assert "Figure 10" in buffered_reporter.sink.text()
    assert capsys.readouterr().out == ""  # nothing leaked to stdout


def test_stream_sink_writes_lines():
    stream = io.StringIO()
    reporter = Reporter(StreamSink(stream))
    reporter.line("hello")
    reporter.line()
    assert stream.getvalue() == "hello\n\n"


def test_metrics_summary_lines(hub):
    sink = BufferSink()
    hub.metrics.counter("mccs_flows_total").inc(3, job="A")
    hub.metrics.histogram("d_seconds", buckets=(1.0,)).observe(0.5, app="A")
    Reporter(sink).metrics_summary(hub)
    text = sink.text()
    assert "mccs_flows_total{job=A}  3" in text
    assert "d_seconds{app=A}  count=1 mean=0.5s" in text


def test_metrics_summary_with_name_selection(hub):
    sink = BufferSink()
    hub.metrics.counter("a").inc()
    hub.metrics.counter("b").inc()
    Reporter(sink).metrics_summary(hub, names=["b", "missing"])
    assert sink.text() == "  b  1"


def test_dump_json_writes_file_and_reports(tmp_path):
    sink = BufferSink()
    path = tmp_path / "out.json"
    Reporter(sink).dump_json({"k": [1, 2]}, str(path))
    assert json.loads(path.read_text()) == {"k": [1, 2]}
    assert sink.lines == [f"wrote {path}"]


def test_hub_summary_lines_cover_all_stores(hub):
    hub.metrics.counter("mccs_flows_total").inc(2)
    hub.spans.begin("op", 0.0).finish(1.0)
    hub.events.log(0.0, "policy_run")
    lines = hub.summary_lines()
    assert "mccs_flows_total = 2" in lines
    assert "spans recorded = 1 (evicted 0)" in lines
    assert "decision events = 1 (evicted 0)" in lines
