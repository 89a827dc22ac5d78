"""No dead surface: every definition under ``src/repro`` has a product caller.

A class, function or method that no code reaches is cost with no reader.
This check walks every definition under ``src/repro`` — dunders aside —
and fails unless code in ``src/repro``, ``benchmarks/`` or ``examples/``
refers to it somewhere other than its own body.  References are read from
the AST: a ``Name``, an ``Attribute``, or a string constant equal to the
name (the shim dispatches collectives through ``getattr(client,
kind.value)``).  A docstring that mentions a name is not a reference; an
f-string that calls it is.  Package re-exports (imports and ``__all__``)
do not count either.

The exceptions are surface a caller outside this tree uses, each with its
reason in ``ALLOWED``; the dict may only shrink.
"""

import ast
from collections import defaultdict

from .test_data_plane_hygiene import SOURCES, TREE, _relative
from .test_option_hygiene import PRODUCT

#: The four reasons a definition may have no product caller.
CATEGORIES = (
    "tenant API",  # shim calls, NCCL baseline calls, gateway client routes
    "provider API",  # §4.3 management/tracing, controller policies, tenant admin
    "reference oracle",  # what tests hold the product to
    "getattr dispatch",  # reached by a computed name
)

#: Definitions with no product caller, kept on purpose.  May only shrink.
ALLOWED = {
    "MccsClient.send_recv": "tenant API: the shim's point-to-point call",
    "NcclCommunicator.destroy": "tenant API: ncclCommDestroy on the baseline",
    "NcclIssuer": "tenant API: a training loop replayed on the NCCL baseline",
    "GatewayClient.health": "tenant API: the gateway's GET /v1/health route",
    "GatewayClient.destroy_comm": "tenant API: the gateway's POST /v1/comms/destroy route",
    "CentralManager.apply_ring_policy": "provider API: the locality-ring controller policy",
    "CentralManager.prioritize_with_ts": "provider API: the time-slot (TS) controller policy",
    "CentralManager.watch_background": "provider API: the Figure 7 background-flow policy loop",
    "MccsDeployment.network_utilization": "provider API: §4.3 management, link utilization",
    "TelemetryHub.to_prometheus": "provider API: §4.3 management, metrics scrape",
    "TraceRecord.network_duration": "provider API: §4.3 tracing, network time of a collective",
    "TraceRecord.queue_delay": "provider API: §4.3 tracing, queueing before the network",
    "ServiceGateway.revoke_tenant": "provider API: gateway tenant admin, close an account",
    "TenantRegistry.rotate_key": "provider API: gateway tenant admin, rotate an API key",
    "progressive_filling": "reference oracle: the max-min allocation the solver is held to",
    "ExecutionPlan.edge_bytes": (
        "reference oracle: bytes the executor's ops move per rank pair, which "
        "the schedule-view tests hold the flow model's send tables to"
    ),
    "Topology.equal_cost_paths": (
        "reference oracle: the string-path enumeration tests/core/"
        "flow_policy_oracle.py scores FFA and PFA with"
    ),
}


def _definitions():
    """(path, qualified name, name, first line, last line) of every class,
    function and method under ``src/repro``, dunders aside."""

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield path, qualname, child.name, first, child.end_lineno
                yield from walk(child, qualname + ".", path)
            else:
                yield from walk(child, prefix, path)

    for path in SOURCES:
        yield from walk(TREE[path], "", path)


def _references():
    """Name -> (path, line) of every product reference to it."""
    refs = defaultdict(list)
    for path, tree in PRODUCT.items():
        exports = {
            id(node)
            for statement in tree.body
            if isinstance(statement, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in statement.targets)
            for node in ast.walk(statement)
        }
        for node in ast.walk(tree):
            if id(node) in exports:
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs[name].append((path, node.lineno))
    return refs


def _unreferenced():
    """Qualified name -> module of every definition nothing else reaches."""
    refs = _references()
    return {
        qualname: _relative(path)
        for path, qualname, name, first, last in _definitions()
        if all(p == path and first <= line <= last for p, line in refs[name])
    }


UNREFERENCED = _unreferenced()


def test_every_definition_has_a_product_caller():
    dead = sorted(f"{module}: {name}" for name, module in UNREFERENCED.items()
                  if name not in ALLOWED)
    assert dead == []


def test_the_allow_list_only_shrinks():
    """An entry that gained a product caller, or whose definition is
    gone, leaves the list."""
    assert sorted(set(ALLOWED) - set(UNREFERENCED)) == []


def test_every_exception_names_its_category():
    assert [name for name, why in ALLOWED.items() if not why.startswith(CATEGORIES)] == []


def test_the_scan_sees_the_tree():
    """Guards against AST drift: the walk finds the known definitions."""
    names = {qualname for _, qualname, *_ in _definitions()}
    assert {"MccsDeployment.run", "ServiceGateway._settle", "progressive_filling"} <= names
    assert len(names) > 1000
