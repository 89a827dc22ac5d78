"""One data plane, and it stays one.

ROADMAP item 2 replaced five byte-moving implementations with the
executor in ``repro.collectives.executor``.  These checks walk the
source tree and the live registry and fail if a second one grows back: a
``*DataPlane`` class, a ``run_data`` override that bypasses the shared
path, or reduction code outside the executor and the numpy oracle.
"""

import ast
import pathlib
import re

import repro
from repro.core.algorithms import (
    CollectiveAlgorithm,
    get_algorithm,
    registered_algorithms,
)
from repro.synth import SynthAlgorithm  # noqa: F401  (a subclass to walk)

SRC = pathlib.Path(repro.__file__).parent
SOURCES = sorted(SRC.rglob("*.py"))


def _relative(path):
    return path.relative_to(SRC).as_posix()


def test_no_data_plane_classes():
    offenders = [
        f"{_relative(path)}: {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("DataPlane")
    ]
    assert offenders == []


def test_run_data_is_defined_exactly_once():
    definitions = [
        f"{_relative(path)}: {cls.name}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "run_data"
    ]
    assert definitions == ["core/algorithms.py: CollectiveAlgorithm"]


def test_registered_algorithms_and_subclasses_share_run_data():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    shared = CollectiveAlgorithm.run_data
    in_tree = [
        sub for sub in subclasses(CollectiveAlgorithm)
        if sub.__module__.startswith("repro.")
    ]
    assert len(in_tree) >= 4  # ring, tree, halving-doubling, synth
    registered = [type(get_algorithm(name)) for name in registered_algorithms()]
    for cls in in_tree + registered:
        assert cls.run_data is shared, cls


def test_only_the_executor_and_the_oracle_reduce_payload():
    reduces = re.compile(r"\.ufunc\b|\.combine\(|\breduce_many\(")
    users = {
        _relative(path) for path in SOURCES if reduces.search(path.read_text())
    }
    assert users == {
        "collectives/executor.py",  # the data plane
        "collectives/reference.py",  # the oracle tests compare against
        "collectives/types.py",  # where ReduceOp defines them
    }
