"""Every journal op has replay support, checkpoints speak replay's words,
and every replayed table has a restart that reads it.

``repro.core.journal`` keeps one definition of what a record means: the
branch of ``replay_journal`` that handles its op.  Compaction is
``checkpoint(replay_journal(log))``, so a state op replay ignores would
silently vanish from the log at the next checkpoint, and a checkpoint
record that names an op or a payload key replay does not read would be
dead weight (or, worse, a second meaning).  These checks walk the module
and fail if either drifts: the ops replay handles are exactly
``_STATE_OPS``, and ``checkpoint`` emits only those ops, each with
exactly the payload keys replay reads for it.

The journal exists for restarts: a table of ``ControlPlaneState`` that
no code outside the journal reads off a ``replay_journal(...)`` result
is a second copy of live state that only ``verify_journal()`` looks at,
and every control operation would pay an append for it.
"""

import ast
import dataclasses

from repro.core.journal import _STATE_OPS, ControlPlaneState

from .test_data_plane_hygiene import SOURCES, SRC, TREE

JOURNAL = TREE[SRC / "core/journal.py"]


def _function(name):
    return next(
        node for node in JOURNAL.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _replayed_keys():
    """op -> payload keys its ``replay_journal`` branch reads."""
    keys = {}
    for node in ast.walk(_function("replay_journal")):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "op"
            and isinstance(test.comparators[0], ast.Constant)
        ):
            continue
        keys[test.comparators[0].value] = {
            sub.slice.value
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "p"
            and isinstance(sub.slice, ast.Constant)
        }
    return keys


def _checkpoint_records():
    """``(op, payload keys)`` of every record ``checkpoint`` builds."""
    return [
        (node.elts[0].value, {key.value for key in node.elts[1].keys})
        for node in ast.walk(_function("checkpoint"))
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[1], ast.Dict)
    ]


def test_replay_handles_exactly_the_state_ops():
    assert set(_replayed_keys()) == _STATE_OPS


def test_checkpoint_records_carry_only_what_replay_reads():
    replayed = _replayed_keys()
    records = _checkpoint_records()
    assert {op for op, _ in records} == {"tenant_register", "alloc"}
    for op, keys in records:
        assert op in replayed, op
        assert keys == replayed[op], op


def _is_replay(node):
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "replay_journal"
        or getattr(node.func, "attr", None) == "replay_journal"
    )


def _replayed_tables_read():
    """``{field: [file, ...]}`` of the ``replay_journal(...)`` result
    attributes read outside ``core/journal.py``, directly or through a
    name the result was assigned to."""
    reads = {}
    for path in SOURCES:
        if path == SRC / "core/journal.py":
            continue
        tree = TREE[path]
        bound = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and _is_replay(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                _is_replay(node.value)
                or (isinstance(node.value, ast.Name) and node.value.id in bound)
            ):
                reads.setdefault(node.attr, []).append(
                    str(path.relative_to(SRC))
                )
    return reads


def test_every_replayed_table_has_a_restart_reader():
    reads = _replayed_tables_read()
    tables = {f.name for f in dataclasses.fields(ControlPlaneState)}
    assert {table: sorted(set(reads.get(table, []))) for table in tables} == {
        "buffers": ["core/service.py"],
        "tenants": ["service/registry.py"],
    }
