"""Observed by construction, and it stays that way.

Every deployment builds its ``TelemetryHub`` with its simulator and hands
it to each layer, so the service core has no unobserved configuration:
no ``telemetry is None`` arm, no ``Optional`` hub, no half-built hub
whose ``network`` / ``causal`` / ``flight`` may be missing, and every
``CollectiveInstance`` has its trace.  These checks walk the source and
fail if the fork, or one of the names deleted with it, grows back.
"""

import ast
import re

from .test_data_plane_hygiene import SOURCES, SRC, TEXT, TREE, _relative

#: Where a with/without-telemetry fork would have to live.
OBSERVED = [
    path for path in SOURCES
    if _relative(path).startswith(("core/", "faults/"))
    or _relative(path) in ("telemetry/hub.py", "telemetry/exporters.py")
]
HUB_NAMES = {"telemetry", "_telemetry", "trace"}
HUB_PARTS = {"flight", "causal", "network"}


def _is_hub_expression(node):
    if isinstance(node, ast.Name):
        return node.id in HUB_NAMES
    return isinstance(node, ast.Attribute) and node.attr in HUB_NAMES | HUB_PARTS


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def test_nothing_asks_whether_it_is_observed():
    offenders = [
        f"{_relative(path)}:{node.lineno}"
        for path in OBSERVED
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.Compare)
        and any(map(_is_none, [node.left, *node.comparators]))
        and any(map(_is_hub_expression, [node.left, *node.comparators]))
    ]
    assert offenders == []


#: The optional hub and what existed only to serve it.
RETIRED = re.compile(
    r"Optional\[\s*\"?TelemetryHub|attach_network|TraceContext|TraceStore"
    r"|trace_capacity"
)


def test_retired_names_stay_retired():
    assert len(OBSERVED) > 20 and SRC / "telemetry/hub.py" in OBSERVED
    mentions = [
        f"{_relative(path)}:{number}"
        for path in SOURCES
        for number, line in enumerate(TEXT[path].splitlines(), 1)
        if RETIRED.search(line)
    ]
    assert mentions == []
