"""No identity keys: nothing under ``src/repro`` calls ``id(...)``.

An ``id()`` is an address, reused as soon as the object it named is
collected, so a memo keyed on one can hand a new object the entry of a
dead one.  The launch path keeps what it proved by value instead: the
views record on the request's refs and the memory generations, the
connection table's routed batches on each rank's transfers.  This check
walks ``src/repro`` and fails on any call of the builtin ``id``.
"""

import ast

from .test_data_plane_hygiene import SOURCES, TREE, _relative


def test_no_id_calls_under_src():
    offenders = [
        f"{_relative(path)}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]
    assert offenders == [], f"id() keys go stale once their object dies: {offenders}"
