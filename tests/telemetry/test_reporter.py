"""Experiment reporting: tables, captured output, JSON artifacts and the
hub's digest.  Experiments print; tests read what they printed with
``capsys``."""

import json

from repro.experiments.report import format_table, print_table, write_json


def test_format_table_alignment():
    text = format_table(["name", "v"], [["a", 1], ["bcd", 22]], title="T")
    assert text.split("\n") == [
        "T",
        "name  v ",
        "----  --",
        "a     1 ",
        "bcd   22",
    ]


def test_reporter_table_emits_trailing_blank_line(capsys):
    print_table(["h"], [["x"]])
    assert capsys.readouterr().out == "h\n-\nx\n\n"


def test_print_table_routes_through_default_reporter(capsys):
    """Stdout is the one reporter: a titled table lands there whole."""
    print_table(["a", "b"], [[1, 2]], title="caught")
    text = capsys.readouterr().out
    assert "caught" in text
    assert "1  2" in text


def test_experiment_main_output_is_capturable(capsys):
    """A harness reads a whole figure main's output back."""
    from repro.experiments.fig10_dynamic import DynamicTimeline, _print

    timeline = DynamicTimeline(
        events={},
        phases=[("solo", 0.0, 1.0)],
        throughput=[],
        ffa_baseline={},
    )
    _print(timeline)
    assert "Figure 10" in capsys.readouterr().out


def test_dump_json_writes_file_and_reports(tmp_path, capsys):
    path = tmp_path / "out.json"
    write_json({"k": [1, 2]}, str(path))
    assert json.loads(path.read_text()) == {"k": [1, 2]}
    assert capsys.readouterr().out == f"wrote {path}\n"


def test_hub_summary_lines_cover_all_stores(hub):
    hub.metrics.counter("mccs_flows_total").inc(2)
    trace = hub.causal.open(
        0.0, tenant="A", comm_id="comm0", seq=0, kind="op", nbytes=8
    )
    hub.causal.close(trace, 1.0, "aborted")
    hub.events.log(0.0, "policy_run")
    lines = hub.summary_lines()
    assert "mccs_flows_total = 2" in lines
    # One aborted-before-launch collective: its root and one queued phase.
    assert "spans exported = 2 (evicted 0)" in lines
    assert "decision events = 1 (evicted 0)" in lines
