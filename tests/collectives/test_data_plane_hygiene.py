"""One data plane, one traffic model, and they stay one.

ROADMAP item 2 replaced five byte-moving implementations with the
executor in ``repro.collectives.executor``; item 4 replaced seven
hand-written copies of a schedule's traffic with views of the compiled
plan.  These checks walk the source tree and the live registry and fail
if a second one grows back: a ``*DataPlane`` class, a ``run_data`` /
``rank_transfers`` / ``steps`` override that bypasses the shared path,
reduction code outside the executor and the numpy oracle, or a closed
form that turns (kind, world) into bytes or steps outside the three
modules that own the schedule.
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
TEXT = {path: path.read_text() for path in SOURCES}
TREE = {path: ast.parse(text) for path, text in TEXT.items()}
CLASSES = [
    (path, node)
    for path in SOURCES
    for node in ast.walk(TREE[path])
    if isinstance(node, ast.ClassDef)
]


def _relative(path):
    return path.relative_to(SRC).as_posix()


def test_no_data_plane_classes():
    offenders = [
        f"{_relative(path)}: {cls.name}"
        for path, cls in CLASSES
        if cls.name.endswith("DataPlane")
    ]
    assert offenders == []


def _methods_named(name):
    return [
        f"{_relative(path)}: {cls.name}"
        for path, cls in CLASSES
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == name
    ]


def test_run_data_is_defined_exactly_once():
    assert _methods_named("run_data") == ["core/algorithms.py: CollectiveAlgorithm"]


def test_the_schedule_views_are_defined_exactly_once():
    """Flows and step count are derived from ``plan()``, in one place;
    a family that overrode either could describe a second schedule."""
    assert _methods_named("steps") == ["core/algorithms.py: CollectiveAlgorithm"]
    flows = _methods_named("rank_transfers")
    assert 1 <= len(flows) <= 2
    assert {entry.split(":")[0] for entry in flows} == {"core/algorithms.py"}


def test_registered_algorithms_and_subclasses_share_run_data():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    in_tree = [
        sub for sub in subclasses(CollectiveAlgorithm)
        if sub.__module__.startswith("repro.")
    ]
    assert len(in_tree) >= 4  # ring, tree, halving-doubling, synth
    registered = [type(get_algorithm(name)) for name in registered_algorithms()]
    for cls in in_tree + registered:
        assert cls.run_data is CollectiveAlgorithm.run_data, cls
        assert cls.steps is CollectiveAlgorithm.steps, cls
        # every family *states* its schedule, and only that
        assert cls.plan is not CollectiveAlgorithm.plan, cls


def test_only_the_executor_and_the_oracle_reduce_payload():
    reduces = re.compile(r"\.ufunc\b|\.combine\(|\breduce_many\(")
    users = {
        _relative(path) for path in SOURCES if reduces.search(TEXT[path])
    }
    assert users == {
        "collectives/executor.py",  # the data plane
        "collectives/reference.py",  # the oracle tests compare against
        "collectives/types.py",  # where ReduceOp defines them
    }


#: The closed forms that left ``src/`` for ``tests/collectives/oracles.py``
#: and the launch paths that embedded them.
RETIRED = re.compile(
    r"edge_traffic|steps_for|hd_steps|tree_steps|halving_doubling_traffic"
    r"|tree_allreduce_traffic|launch_ring|launch_double_tree|_synth_program"
)


def test_no_closed_form_traffic_outside_the_schedule_owners():
    mentions = [
        f"{_relative(path)}:{number}"
        for path in SOURCES
        for number, line in enumerate(TEXT[path].splitlines(), 1)
        if RETIRED.search(line)
    ]
    assert mentions == []
    # the cost model asks the algorithm; it imports no schedule module
    cost = TREE[SRC / "autotune/cost.py"]
    imported = {
        node.module for node in ast.walk(cost) if isinstance(node, ast.ImportFrom)
    }
    assert not {
        module for module in imported
        if module.split(".")[-1] in ("ring", "tree", "halving_doubling", "generators")
    }


#: The two wrapper solvers PR 21 deleted, the constructor keywords that
#: selected them and the base-solver methods only they called.
RETIRED_SOLVER_MODES = re.compile(
    r"MacroFlowSolver|ShardedFairnessSolver|\bmacro=|\bsharded="
    r"|\bset_weight\b|\blevel_of\b|\badd_links\b"
)


def test_retired_solver_modes_stay_retired():
    bench = SRC.parents[1] / "benchmarks" / "test_netsim_core.py"
    texts = {**TEXT, bench: bench.read_text()}
    mentions = [
        f"{path.name}:{number}"
        for path, text in texts.items()
        for number, line in enumerate(text.splitlines(), 1)
        if RETIRED_SOLVER_MODES.search(line)
    ]
    assert mentions == []


def test_no_world_arithmetic_in_the_traffic_consumers():
    """``2 * (world - 1)``, ``(n - 1) / n * bytes`` and friends: the
    launch path, the baseline and the cost model read the plan instead."""
    def world_minus_one(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 1
            and isinstance(node.left, (ast.Name, ast.Attribute))
            and (getattr(node.left, "id", None) or node.left.attr)
            in ("world", "n", "num_ranks", "nranks")
        )

    consumers = [
        path for path in SOURCES
        if _relative(path).startswith(("transport/", "baselines/"))
        or _relative(path) == "autotune/cost.py"
    ]
    assert len(consumers) >= 5
    offenders = [
        f"{_relative(path)}:{node.lineno}"
        for path in consumers
        for node in ast.walk(TREE[path])
        if world_minus_one(node)
    ]
    assert offenders == []


def test_no_orphaned_imports_where_the_closed_forms_lived():
    """CI runs ``ruff --select F401`` over a list of paths; ruff is not
    in the sandbox image, so this is the local stand-in, over all of
    ``src/repro``: every imported name is used — as a name, or inside a
    quoted annotation, or re-exported through ``__all__`` (package
    ``__init__`` and ``noqa`` aside)."""
    files = [path for path in SOURCES if path.name != "__init__.py"]
    assert len(files) >= 100
    orphans = []
    for path in files:
        tree, lines = TREE[path], TEXT[path].splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:  # re-exports, as ruff reads them
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        annotations = [
            getattr(node, field, None)
            for node in ast.walk(tree)
            for field in ("annotation", "returns")
        ]
        for annotation in filter(None, annotations):  # "quoted" ones
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(re.findall(r"[A-Za-z_]\w*", node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            orphans += [
                f"{_relative(path)}:{node.lineno} {alias.asname or alias.name}"
                for alias in node.names
                if (alias.asname or alias.name).split(".")[0] not in used
            ]
    assert orphans == []
