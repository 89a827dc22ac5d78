"""No process-global state: every id belongs to the object that issues it.

Communicator ids feed the ECMP hash, so an id drawn from a process-wide
counter makes one tenant's paths depend on whatever else the process built
first.  Ids are issued by their owner instead — buffer ids and the NCCL
baseline's job numbers by the ``Cluster``, IPC handle ids by the host's
``IpcRegistry``, communicator ids by the ``MccsDeployment``, session ids by
the ``ReconfigManager``, request ids by the ``ServiceGateway``, flow ids by
the ``FlowSimulator``.  This check walks ``src/repro`` and fails on

* an ``itertools.count(...)`` evaluated at module or class level,
* a ``global`` statement,
* a module-level object that a function mutates in place (item writes,
  ``append`` / ``update`` / ``pop`` / ... calls, attribute writes),

except for the names in :data:`ALLOWED`; and it fails when the deleted
id counters or the default reporter reappear anywhere in ``src/`` or
``tests/``.
"""

import ast
import pathlib
import re

from .test_data_plane_hygiene import SOURCES, TREE, _relative

TESTS = pathlib.Path(__file__).resolve().parent.parent

#: (module, name) -> why this process-global object may stay.
ALLOWED = {
    ("core/algorithms.py", "_REGISTRY"): (
        "the algorithm registry is the extension point: a name must mean "
        "the same program to every deployment in the process, and the e2e "
        "harness registers synthesized programs with no deployment to own them"
    ),
}

MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "remove", "setdefault", "update",
}

RETIRED = re.compile(
    r"\b_(comm|buffer|stream|event|handle|session|sync|launch|flow)_counter\b"
    r"|\b(set|get)_default_reporter\b|\b(Buffer|Stream|Stdout)Sink\b"
    r"|\btelemetry\.reporter\b|_GLOBAL_COUNTERS"
)


def _evaluated_at_load(node):
    """Nodes evaluated when the module (or a class body) is executed:
    everything except what sits inside a function or lambda body."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # Decorators and defaults run at definition time; the body does not.
        heads = getattr(node, "decorator_list", []) + node.args.defaults
        heads += [d for d in node.args.kw_defaults if d is not None]
        for head in heads:
            yield from _evaluated_at_load(head)
        return
    for child in ast.iter_child_nodes(node):
        yield from _evaluated_at_load(child)


def _is_count_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "count" and getattr(func.value, "id", None) == "itertools"
    return isinstance(func, ast.Name) and func.id == "count"


def _module_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _mutated_globals(tree):
    """(line, name) of every in-place write, inside a function, to an object
    bound at module level and not rebound locally."""
    module = _module_names(tree)
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        local.update(
            n.id for n in ast.walk(function)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        )
        for node in ast.walk(function):
            target = None
            if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                target = node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
            ):
                target = node.func.value
            if isinstance(target, ast.Name) and target.id in module - local:
                yield node.lineno, target.id


def test_no_id_counter_at_module_or_class_level():
    offenders = [
        f"{_relative(path)}:{node.lineno}"
        for path in SOURCES
        for node in _evaluated_at_load(TREE[path])
        if _is_count_call(node)
    ]
    assert offenders == []


def test_no_global_statement():
    offenders = [
        f"{_relative(path)}:{node.lineno} global {', '.join(node.names)}"
        for path in SOURCES
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.Global)
    ]
    assert offenders == []


def test_only_the_algorithm_registry_is_process_global():
    mutated = {
        (_relative(path), name): line
        for path in SOURCES
        for line, name in _mutated_globals(TREE[path])
    }
    assert set(mutated) == set(ALLOWED)


def test_retired_counters_and_reporter_stay_retired():
    here = pathlib.Path(__file__).resolve()
    offenders = [
        f"{path}: {match.group(0)}"
        for path in SOURCES + sorted(TESTS.rglob("*.py"))
        if path.resolve() != here
        for match in RETIRED.finditer(path.read_text())
    ]
    assert offenders == []
