"""A value nobody sets is a constant, and it stays one.

Every field of a control-plane policy dataclass (``*Policy`` / ``*Config``
/ ``*Model`` / ``*Quota`` / ``Backoff`` under ``core/``, ``autotune/``,
``synth/``, ``service/`` and ``resilience.py``) is an independently
settable value that tests and benchmarks would have to cover.  This check
walks every call in ``src/``, ``benchmarks/`` and ``examples/`` and fails
when a field is set by no product caller — it should be a module constant
— or when one of the policy objects and pass-through knobs deleted for
that reason grows back.  Tests that need another value patch the
constant.  The planner and the synthesizer also ask an algorithm or a
fabric spec what it is through declared attributes, never by probing
with ``getattr``.
"""

import ast
import pathlib
import re

from .test_data_plane_hygiene import SOURCES, TEXT, TREE, _relative

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SCOPE = ("core/", "autotune/", "synth/", "service/", "resilience.py")
OPTION_CLASS = re.compile(r"(Policy|Config|Model|Quota)$|^Backoff$")

#: Fields only tests set today.  This list may only shrink.
UNSET_BY_PRODUCT_CODE = {
    "AdmissionPolicy.total_inflight",
    "AdmissionPolicy.default_class",
    "BreakerPolicy.half_open_probes",
    "CapacityModel.max_utilization",
    "TenantQuota.max_communicators",
    "Backoff.jitter",
}

RETIRED = re.compile(
    r"RecoveryPolicy|ElasticPolicy|AutotuneConfig|EpsilonGreedy|make_bandit"
    r"|configure_slo|set_slo_policy|control_latency="
    r"|estimate_program_seconds|beam_width|channel_options|chunk_options|mccs_latency"
)


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _option_classes():
    """Class name -> field names in declaration (= positional) order."""
    return {
        node.name: [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        for path in SOURCES
        if _relative(path).startswith(SCOPE)
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.ClassDef)
        and OPTION_CLASS.search(node.name)
        and _is_dataclass(node)
    }


def _product_trees():
    yield from TREE.values()
    for folder in ("benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield ast.parse(path.read_text())


def test_every_option_field_is_set_by_a_product_caller():
    classes = _option_classes()
    assert {"AdmissionPolicy", "GatewayPolicy", "Backoff"} <= set(classes)
    passed = set()
    for tree in _product_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            fields = classes.get(name)
            if fields is None:
                continue
            passed.update(f"{name}.{field}" for field in fields[: len(node.args)])
            passed.update(f"{name}.{kw.arg}" for kw in node.keywords)
    declared = {
        f"{name}.{field}" for name, fields in classes.items() for field in fields
    }
    assert declared - passed == UNSET_BY_PRODUCT_CODE


def test_retired_knobs_stay_retired():
    offenders = [
        f"{_relative(path)}: {match.group(0)}"
        for path in SOURCES
        for match in RETIRED.finditer(TEXT[path])
    ]
    assert offenders == []


def test_no_duck_typed_probes_in_the_cost_model():
    offenders = [
        f"{_relative(path)}:{node.lineno}"
        for path in SOURCES
        if _relative(path).startswith(("autotune/", "synth/"))
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
    ]
    assert offenders == []
