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


#: The optional hub and what existed only to serve it, the span store
#: (spans are rendered from the causal trees and the session records),
#: successor communicators (a lost rank is a shrink) and the write-only
#: membership stores.
RETIRED = re.compile(
    r"Optional\[\s*\"?TelemetryHub|attach_network|TraceContext|TraceStore"
    r"|trace_capacity|SpanRecorder|MAX_SPANS|exported_spans"
    r"|\breformed\b|_reform\b|comm_reformed|reform_skipped|HISTORY_KEPT"
    r"|UPGRADES_KEPT|_Operation\b"
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


def _calls(path, attribute):
    return [
        node for node in ast.walk(TREE[path])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attribute
    ]


def test_one_membership_cutover_and_one_barrier_loop():
    """Membership changes only through ``MccsDeployment.change_membership``
    (the one ``apply_membership`` caller), and recovery reaches the
    barrier only through ``drain``."""
    cutovers = [
        f"{_relative(path)}:{node.lineno}"
        for path in SOURCES
        for node in _calls(path, "apply_membership")
    ]
    assert len(cutovers) == 1
    assert cutovers[0].startswith("core/deployment.py:")
    assert _calls(SRC / "core/recovery.py", "reconfigure") == []
    assert len(_calls(SRC / "core/recovery.py", "drain")) == 1


def test_telemetry_schedules_nothing():
    """Observation never moves the clock: no simulator event is scheduled
    from under ``telemetry/``, so a run ends when its traffic does."""
    scheduled = [
        f"{_relative(path)}:{node.lineno}"
        for path in SOURCES
        if _relative(path).startswith("telemetry/")
        for attribute in ("call_in", "schedule", "call_at")
        for node in _calls(path, attribute)
    ]
    assert scheduled == []
