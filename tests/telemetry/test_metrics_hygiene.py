"""Metrics hygiene: every ``mccs_*`` series has help text and docs.

The registry accepts ``help=""`` so call sites stay terse in prototypes,
but an operator-facing service must not scrape undocumented series.
These tests walk the *source tree* with ``ast`` — not a runtime registry
snapshot — so a metric registered only on a rare code path (crash
recovery, live upgrade, autotune fallback) is still held to the bar.

A name is "documented" when it appears verbatim in
``docs/observability.md``, or when the docs list its family with a
wildcard/brace form (``mccs_autotune_*``,
``mccs_program_cache_{size,...}``) — the same families that are
registered through f-strings in the source.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src" / "repro"
DOCS = REPO / "docs" / "observability.md"

_REGISTER_METHODS = {"counter", "gauge", "histogram"}


def _metric_name(node: ast.expr):
    """Static metric name of a registration call's first argument.

    Returns the full name for string literals, the literal prefix for
    f-strings (``f"mccs_netsim_{name}"`` -> ``"mccs_netsim_"`` plus a
    dynamic marker), and ``None`` for anything non-constant.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, True
    return None


def _registrations():
    """Every static ``.counter/.gauge/.histogram("mccs_...")`` call site."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGISTER_METHODS
                and node.args
            ):
                continue
            named = _metric_name(node.args[0])
            if named is None or not named[0].startswith("mccs_"):
                continue
            name, dynamic = named
            help_arg = None
            if len(node.args) > 1:
                help_arg = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "help":
                        help_arg = kw.value
            sites.append(
                {
                    "name": name,
                    "dynamic": dynamic,
                    "kind": node.func.attr,
                    "where": f"{path.relative_to(REPO)}:{node.lineno}",
                    "help": help_arg,
                }
            )
    return sites


def test_sources_register_metrics():
    """The scan itself must see the fleet — guards against ast drift."""
    names = {s["name"] for s in _registrations()}
    # Spot-check one metric per PR era: seed, reconfig, faults, autotune,
    # causal tracing, SLO accounting.  If any disappears the scan (or the
    # metric) broke.
    for expected in (
        "mccs_shim_calls_total",
        "mccs_barrier_stall_seconds",
        "mccs_recovery_seconds",
        "mccs_autotune_observations_total",
        "mccs_flight_dumps_total",
        "mccs_collective_bytes_total",
    ):
        assert expected in names, f"scan no longer finds {expected}"
    assert len(names) > 40


def test_every_metric_has_help_text():
    missing = [
        s["where"] + " " + s["name"]
        for s in _registrations()
        if not (
            isinstance(s["help"], ast.Constant)
            and isinstance(s["help"].value, str)
            and s["help"].value.strip()
        )
    ]
    assert not missing, f"metrics registered without help text: {missing}"


def test_every_metric_is_documented():
    docs = DOCS.read_text()
    # Family rows: `mccs_autotune_*`, `mccs_program_cache_{size,...}` —
    # a trailing `*` or `{` marks everything sharing the prefix covered.
    # The prefix must extend past `mccs_` itself, or prose mentioning
    # the bare `mccs_*` convention would blanket-document everything.
    families = set(re.findall(r"(mccs_[a-z0-9_]+)[*{]", docs))

    def documented(site) -> bool:
        name = site["name"]
        if not site["dynamic"] and name in docs:
            return True
        return any(name.startswith(prefix) for prefix in families)

    undocumented = sorted(
        {s["name"] for s in _registrations() if not documented(s)}
    )
    assert not undocumented, (
        "metrics missing a row in docs/observability.md: "
        f"{undocumented}"
    )
