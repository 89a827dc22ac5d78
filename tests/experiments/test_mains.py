"""Smoke tests of ``python -m repro.experiments`` (cheap figures only)."""

import json

from repro.collectives.types import Collective
from repro.experiments import ALL_FIGURES, fig02_breakdown, fig03_crossrack, fig_crashloop
from repro.experiments.__main__ import main as cli_main
from repro.experiments.fig06_single_app import as_tables, run_fig06
from repro.netsim.units import KB, MB


def test_fig02_main_prints_tables(capsys):
    assert fig02_breakdown.main() == {}
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "Comm" in out
    assert "vgg19-dp-8gpu" in out


def test_fig03_main_prints_curves(capsys):
    fig03_crossrack.main()
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "2 hosts/rack" in out and "4 hosts/rack" in out


def test_cli_rejects_unknown_figure(capsys):
    assert cli_main(["fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().out


def test_cli_runs_selected_figure(capsys):
    assert cli_main(["fig02"]) == 0
    out = capsys.readouterr().out
    assert "fig02" in out and "completed in" in out


def test_cli_refuses_an_out_path_that_is_a_file_before_running(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main(["fig02", "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert str(taken) in captured.err
    assert "fig02" not in captured.out


def test_cli_writes_each_artifact_under_its_name(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fig_crashloop, "SEEDS", (0,))
    out = tmp_path / "new" / "dir"
    assert cli_main(["failover", "crashloop", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["crashloop.json", "failover.json"]
    failover = json.loads((out / "failover.json").read_text())
    crashloop = json.loads((out / "crashloop.json").read_text())
    assert failover["experiment"] == "failover" and len(failover["rows"]) == 4
    assert crashloop["experiment"] == "crashloop" and len(crashloop["reports"]) == 1
    assert f"wrote {out / 'failover.json'}" in capsys.readouterr().out


def test_all_figures_registry_complete():
    assert set(ALL_FIGURES) == {
        "fig02", "fig03", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
        "failover", "autotune", "crashloop", "attribution", "elastic",
        "synth", "fleet",
    }
    for module in ALL_FIGURES.values():
        assert hasattr(module, "main")


def test_fig06_as_tables_layout():
    results = run_fig06(
        setups=("4gpu",),
        kinds=(Collective.ALL_REDUCE,),
        sizes=(512 * KB, 8 * MB),
        systems=("nccl", "mccs"),
        trials=1,
        iters=1,
    )
    tables = as_tables(results)
    assert list(tables) == [("4gpu", Collective.ALL_REDUCE)]
    header, *rows = tables[("4gpu", Collective.ALL_REDUCE)]
    assert header == ["Size", "NCCL", "MCCS"]
    assert [r[0] for r in rows] == ["512KB", "8MB"]
    for row in rows:
        assert all(float(cell) > 0 for cell in row[1:])
