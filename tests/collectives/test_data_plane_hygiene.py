"""One data plane, one traffic model, and they stay one.

ROADMAP item 2 replaced five byte-moving implementations with the
executor in ``repro.collectives.executor``; item 4 replaced seven
hand-written copies of a schedule's traffic with views of the compiled
plan.  These checks walk the source tree and the live registry and fail
if a second one grows back: a ``*DataPlane`` class, a ``run_data`` /
``rank_transfers`` / ``steps`` override that bypasses the shared path,
reduction code outside the executor and the numpy oracle, executor
scratch allocated anywhere but its staging buffer, a second record
loop or staging request in the executor's ``bind`` / ``BoundRun``, or
a closed
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


def _executor_classes():
    tree = TREE[SRC / "collectives/executor.py"]
    return {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}


def _method(cls, name):
    (method,) = [
        item for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == name
    ]
    return method


#: numpy calls that allocate an array.
ALLOCATORS = {"empty", "zeros", "empty_like", "zeros_like"}


def test_the_executor_allocates_scratch_in_one_place():
    """Scratch comes from ``Staging``; the only other allocation is the
    outputs of a run handed no receive buffers (``out is None``).  A
    per-call ``np.empty`` for working vectors faults fresh pages in on
    every collective."""
    def allocations(*roots):
        return {
            node
            for root in roots
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in ALLOCATORS
        }

    tree = TREE[SRC / "collectives/executor.py"]
    classes = _executor_classes()
    bind = _method(classes["ExecutionPlan"], "bind")
    (fresh_outputs,) = [
        node for node in ast.walk(bind)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "out is None"
    ]
    staging = allocations(classes["Staging"])
    outputs = allocations(*fresh_outputs.body)
    assert staging and outputs  # both places do allocate
    stray = allocations(tree) - staging - outputs
    assert sorted(node.lineno for node in stray) == []


def _calls_named(root, name):
    return [
        node for node in ast.walk(root)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name
    ]


def test_run_applies_records_in_one_loop_over_one_staging_request():
    """Every kind runs the same record loop over the same arrays: ``run``
    is ``bind(...).apply()``, one loop in the executor applies records (it
    is the one that reduces, in the bound run), ``bind`` resolves the
    records once, and scratch is asked for once — the slot pool, by the
    bound run.  A per-kind working-vector path, or a cached path beside
    the binding one, would be a second of either."""
    tree = TREE[SRC / "collectives/executor.py"]
    classes = _executor_classes()
    run = _method(classes["ExecutionPlan"], "run")
    bind = _method(classes["ExecutionPlan"], "bind")
    bound = classes["BoundRun"]
    assert not [node for node in ast.walk(run) if isinstance(node, (ast.For, ast.While))]
    assert [len(_calls_named(run, name)) for name in ("bind", "apply")] == [1, 1]
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    appliers = [loop for loop in loops if _calls_named(loop, "ufunc")]
    assert [loop.lineno for loop in appliers][1:] == []
    (applier,) = appliers
    assert applier in set(ast.walk(bound))
    # the replay slices nothing (``dst[...] = src`` is a whole-view copy):
    # every view was resolved before it
    assert not [
        node for node in ast.walk(applier)
        if isinstance(node, ast.Subscript) and ast.unparse(node.slice) != "..."
    ]
    (resolve,) = _calls_named(bind, "_resolve")
    (assign,) = [
        node for node in ast.walk(bind)
        if isinstance(node, ast.Assign) and node.value is resolve
    ]
    resolved = {node.id for node in ast.walk(assign.targets[0]) if isinstance(node, ast.Name)}
    (construct,) = _calls_named(bind, "BoundRun")
    handed = {
        node.id for arg in construct.args
        for node in ast.walk(arg) if isinstance(node, ast.Name)
    }
    assert resolved & handed  # the bound run walks the resolved records
    assert _calls_named(bound, "_resolve") == []
    assert len(_calls_named(bound, "_resolved")) == 1  # calls resolved in one place
    assert len(_calls_named(bind, "arrays")) + len(_calls_named(bound, "arrays")) == 1


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
