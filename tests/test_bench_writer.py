"""The leaf benchmarks' result writer keeps every row it did not measure.

``benchmarks/compare_bench.py`` guards the rows of the committed
``BENCH_*.json`` files, so a ``-k`` run that measured a few rows of a
section must leave the section's other rows on disk: a row dropped there
is a row no longer guarded.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_conftest", ROOT / "benchmarks" / "conftest.py"
)
bench_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_conftest)


def test_a_partial_run_replaces_its_rows_and_keeps_the_rest(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({
        "data_plane": {"ring/64KB": {"gb_per_s": 0.4}, "ring/16MB": {"gb_per_s": 0.3}},
        "synthesizer": {"testbed": {"front": 4}},
    }))
    bench_conftest.write_results(path, {
        "data_plane": {"ring/16MB": {"gb_per_s": 0.5}, "ring/64MB": {"gb_per_s": 0.6}},
        "synthesizer": {},  # not measured this run
        "speedup": {},
    })
    assert json.loads(path.read_text()) == {
        "data_plane": {
            "ring/64KB": {"gb_per_s": 0.4},
            "ring/16MB": {"gb_per_s": 0.5},
            "ring/64MB": {"gb_per_s": 0.6},
        },
        "synthesizer": {"testbed": {"front": 4}},
    }


def test_the_first_run_writes_what_it_measured(tmp_path):
    path = tmp_path / "BENCH_x.json"
    bench_conftest.write_results(path, {"a": {"row": {"x": 1}}, "b": {}})
    assert path.read_text() == json.dumps({"a": {"row": {"x": 1}}}, indent=2) + "\n"
