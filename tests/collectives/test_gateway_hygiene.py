"""One exit per gateway request, and it stays one.

``service/gateway.py`` ends an accepted request in exactly one function
(``_settle``), declares every exported series once (``__init__``) and
keeps its ledger as counts.  These checks walk the source and fail if a
second exit, an inline metric declaration, a clamp that would hide a
drifting counter, or one of the deleted per-request stores and retry
policies grows back.  The source tree is parsed once, by
``test_data_plane_hygiene`` next door, whose orphaned-import check also
covers the gateway and the retry/admission path.
"""

import ast
import re

from .test_data_plane_hygiene import SOURCES, SRC, TEXT, TREE, _relative

GATEWAY = TREE[SRC / "service/gateway.py"]
FUNCTIONS = [
    node for node in ast.walk(GATEWAY)
    if isinstance(node, (ast.FunctionDef, ast.Lambda))
]
LIVE_STATES = {"QUEUED", "DISPATCHING", "EXECUTING"}


def _name(function):
    return getattr(function, "name", "<lambda>")


def _owners(predicate):
    """Names of the innermost gateway functions containing a matching node."""
    found = []
    for function in FUNCTIONS:
        nested = {
            id(node)
            for child in ast.walk(function)
            if child is not function and isinstance(child, (ast.FunctionDef, ast.Lambda))
            for node in ast.walk(child)
        }
        found += [
            _name(function)
            for node in ast.walk(function)
            if id(node) not in nested and predicate(node)
        ]
    return found


def _is_call_of(node, *attrs):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in attrs
    )


def test_every_series_is_declared_once_at_construction():
    declared = _owners(lambda node: _is_call_of(node, "counter", "gauge", "histogram"))
    assert set(declared) == {"__init__"}
    names = re.findall(r'"(mccs_gateway_\w+)"', TEXT[SRC / "service/gateway.py"])
    assert len(names) == len(set(names)) == len(declared) == 13


def test_exactly_one_function_ends_a_request():
    def assigns_terminal_state(node):
        if not isinstance(node, ast.Assign):
            return False
        targets = [
            t for t in node.targets
            if isinstance(t, ast.Attribute) and t.attr == "state"
            and isinstance(t.value, ast.Name) and t.value.id == "record"
        ]
        live = (
            isinstance(node.value, ast.Attribute)
            and node.value.attr in LIVE_STATES
        )
        return bool(targets) and not live

    def answers_a_record(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "respond"
        )

    assert _owners(assigns_terminal_state) == ["_settle"]
    # ``handle`` answers what was never accepted (no record exists yet).
    assert sorted(_owners(answers_a_record)) == ["_settle", "handle"]
    # ... and nothing takes the response channel off a record elsewhere.
    reads = _owners(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "respond"
        and isinstance(node.value, ast.Name) and node.value.id == "record"
    )
    assert set(reads) == {"_settle"}


def test_no_clamp_hides_a_drifting_counter():
    clamps = _owners(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and any(isinstance(a, ast.Constant) and a.value == 0 for a in node.args)
    )
    assert clamps == []
    assert "max(0," not in TEXT[SRC / "service/gateway.py"]


#: Per-request stores, hand-written exits and duplicate retry policies
#: this module and its neighbours used to have.
RETIRED = re.compile(
    r"rejected_ids|executed_ids|_counted_trips|_finish_dispatch|_reject_record"
    r"|GatewayRetryPolicy|ShimRetryPolicy"
)


def test_retired_names_stay_retired():
    mentions = [
        f"{_relative(path)}:{number}"
        for path in SOURCES
        for number, line in enumerate(TEXT[path].splitlines(), 1)
        if RETIRED.search(line)
    ]
    assert mentions == []
