"""State journal for the MCCS control plane.

A service crash loses the process's in-memory state; the journal keeps
the part a restart cannot read back from anywhere else.  Two tables are
journaled: every mutation appends one typed, JSON-serializable
:class:`JournalRecord`, in one of two orders.

* The tenant table appends *before* it applies (validation, append,
  mutation), as a write-ahead log does.
* A host's buffer table appends *after*: :meth:`~repro.core.service.
  MccsService.allocate` and ``free`` mutate the memory manager first,
  because the ``alloc`` record carries the buffer and IPC handle ids the
  allocation issues.

Replay is the same under either order.  The simulator runs one event at
a time, so no crash falls between a mutation and its append, and a
mutation that raises (out of memory, an unknown buffer, a live tenant)
appends nothing.  At every event boundary — the only points a restart
or :meth:`~repro.core.deployment.MccsDeployment.verify_journal` sees —
the log replays to the live tables.

* A host's buffer table.  Device memory and IPC exports survive a
  service crash (they are host state), but which app owns which buffer
  under which handle lives only in the service; :meth:`~repro.core.
  service.MccsService.restart` rebuilds its memory manager from
  :func:`replay_journal`'s ``buffers``.
* The gateway's tenant table.  :meth:`~repro.service.registry.
  TenantRegistry.restore` rebuilds it from ``tenants``.

Communicator state is not journaled: the live
:class:`~repro.core.deployment.MccsDeployment` owns it and survives a
service crash, so a restart re-registers proxies from its communicators
(and the gateway re-attaches ownership from them).  A record nothing
reads back would only be a second copy of that one home.

Record schema (``op`` -> payload keys):

===================  ====================================================
``alloc``            app, host, gpu, buffer_id, size, handle_id
``free``             app, host, buffer_id
``tenant_register``  tenant, key_hash, quota
``tenant_update``    tenant, key_hash, quota  (full-state replacement)
``tenant_revoke``    tenant
===================  ====================================================

The log is checkpointed: :func:`checkpoint` is the inverse of
:func:`replay_journal`, and :meth:`StateJournal.compact` replaces the log
by the checkpoint of the state it replays to — a ``tenant_register`` per
tenant and an ``alloc`` per buffer, each carrying only the keys replay
reads.  :meth:`~repro.core.deployment.MccsDeployment.verify_journal`
diffs the replayed tables against the live ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..netsim.errors import JournalError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.hub import TelemetryHub
    from .deployment import MccsDeployment  # noqa: F401

#: Every op the journal accepts; each replays to a table a restart reads.
_STATE_OPS = {"alloc", "free", "tenant_register", "tenant_update", "tenant_revoke"}

#: The log checkpoints itself when it reaches ``max(CHECKPOINT_FLOOR,
#: 2 x its size after the last checkpoint)`` records: amortised O(1) per
#: append, and never more than twice what the live state needs.
CHECKPOINT_FLOOR = 1024


@dataclass(frozen=True)
class JournalRecord:
    """One appended control operation."""

    seq: int
    time: float
    op: str
    payload: Dict[str, object] = field(default_factory=dict)


class StateJournal:
    """Append-only log of control-plane mutations.

    The journal is owned by the :class:`~repro.core.deployment.
    MccsDeployment` — not by any per-host service — so it survives a
    service crash the way a WAL on durable storage would.  It compacts
    itself (see :data:`CHECKPOINT_FLOOR`), so it stays bounded by the
    live state, not by the number of operations ever served.
    """

    def __init__(self, telemetry: "TelemetryHub") -> None:
        self._records: List[JournalRecord] = []
        self._seq = itertools.count()
        self._checkpoint_size = 0
        self.telemetry = telemetry
        self.appends_total = 0
        appends = telemetry.metrics.counter(
            "mccs_journal_appends_total",
            "Control-plane operations appended to the state journal.",
        )
        self._append_series = {op: appends.labels(op=op) for op in _STATE_OPS}
        self._records_gauge = telemetry.metrics.gauge(
            "mccs_journal_records",
            "Records currently retained in the state journal.",
        ).labels()

    def __len__(self) -> int:
        return len(self._records)

    def append(self, time: float, op: str, **payload: object) -> JournalRecord:
        if op not in _STATE_OPS:
            raise JournalError(f"unknown journal op {op!r}")
        record = JournalRecord(
            seq=next(self._seq), time=time, op=op, payload=payload
        )
        # Round-trip through JSON so a non-serializable payload fails at
        # append time (the record must be durable-form).
        try:
            json.dumps(record.payload)
        except TypeError as exc:
            raise JournalError(
                f"journal payload for {op!r} is not JSON-serializable: {exc}"
            ) from None
        self._records.append(record)
        self.appends_total += 1
        self._append_series[op].inc()
        if len(self._records) >= max(CHECKPOINT_FLOOR, 2 * self._checkpoint_size):
            self.compact()
        self._records_gauge.set(len(self._records))
        return record

    def records(self) -> List[JournalRecord]:
        return list(self._records)

    def compact(self) -> int:
        """Replace the log by the checkpoint of the state it replays to.

        Replay of the compacted journal equals replay of the original.
        Returns the number of records removed.
        """
        state = replay_journal(self._records)
        kept = checkpoint(state)
        if replay_journal(kept) != state:  # pragma: no cover - invariant
            raise JournalError("compaction changed replay state")
        removed = len(self._records) - len(kept)
        self._records = kept
        self._checkpoint_size = len(kept)
        if removed:
            self.telemetry.metrics.counter(
                "mccs_journal_compacted_total",
                "Journal records dropped by compaction.",
            ).inc(removed)
            self._records_gauge.set(len(kept))
        return removed


@dataclass
class ControlPlaneState:
    """Comparable snapshot of the journaled control-plane tables.

    Two sources produce it — :func:`snapshot_deployment` from the live
    object graph and :func:`replay_journal` purely from the journal — and
    crash/restart validation asserts they are equal.
    """

    #: buffer_id -> {app, host, gpu, size, handle}
    buffers: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: tenant_id -> {key_hash, quota} (live gateway accounts)
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def diff(self, other: "ControlPlaneState") -> List[str]:
        """Human-readable mismatches (empty when states are equal)."""
        lines: List[str] = []
        for what, left, right in (
            ("buffer tables", self.buffers, other.buffers),
            ("tenant tables", self.tenants, other.tenants),
        ):
            if left != right:
                lines.append(
                    f"{what} differ: only-left={sorted(left.keys() - right)} "
                    f"only-right={sorted(right.keys() - left)} "
                    f"changed={sorted(k for k in left.keys() & right if left[k] != right[k])}"
                )
        return lines


def replay_journal(records: List[JournalRecord]) -> ControlPlaneState:
    """Reconstruct the journaled tables purely from journal records."""
    state = ControlPlaneState()
    for rec in records:
        p = rec.payload
        if rec.op == "alloc":
            state.buffers[p["buffer_id"]] = {
                "app": p["app"],
                "host": p["host"],
                "gpu": p["gpu"],
                "size": p["size"],
                "handle": p["handle_id"],
            }
        elif rec.op == "free":
            if p["buffer_id"] not in state.buffers:
                raise JournalError(
                    f"journal frees unknown buffer {p['buffer_id']}"
                )
            del state.buffers[p["buffer_id"]]
        elif rec.op == "tenant_register":
            tenant = str(p["tenant"])
            if tenant in state.tenants:
                raise JournalError(
                    f"journal registers already-live tenant {tenant!r}"
                )
            state.tenants[tenant] = {
                "key_hash": p["key_hash"],
                "quota": dict(p["quota"]),
            }
        elif rec.op == "tenant_update":
            tenant = str(p["tenant"])
            if tenant not in state.tenants:
                raise JournalError(
                    f"journal updates unknown tenant {tenant!r}"
                )
            state.tenants[tenant] = {
                "key_hash": p["key_hash"],
                "quota": dict(p["quota"]),
            }
        elif rec.op == "tenant_revoke":
            tenant = str(p["tenant"])
            if tenant not in state.tenants:
                raise JournalError(
                    f"journal revokes unknown tenant {tenant!r}"
                )
            del state.tenants[tenant]
    return state


def checkpoint(state: ControlPlaneState) -> List[JournalRecord]:
    """The inverse of :func:`replay_journal`: records, numbered from 0,
    that replay to ``state`` — one per live tenant and buffer."""
    ops: List[Tuple[str, Dict[str, object]]] = [
        ("tenant_register", {
            "tenant": tenant, "key_hash": account["key_hash"],
            "quota": account["quota"],
        })
        for tenant, account in state.tenants.items()
    ]
    ops += [
        ("alloc", {
            "app": info["app"], "host": info["host"], "gpu": info["gpu"],
            "buffer_id": buffer_id, "size": info["size"],
            "handle_id": info["handle"],
        })
        for buffer_id, info in state.buffers.items()
    ]
    return [
        JournalRecord(seq=seq, time=0.0, op=op, payload=payload)
        for seq, (op, payload) in enumerate(ops)
    ]


def snapshot_deployment(deployment: "MccsDeployment") -> ControlPlaneState:
    """Snapshot the live tables in journal-comparable form."""
    state = ControlPlaneState()
    for service in deployment.services.values():
        for buffer_id, alloc in service.memory.allocations().items():
            state.buffers[buffer_id] = {
                "app": alloc.app_id,
                "host": service.host.host_id,
                "gpu": alloc.buffer.device.global_id,
                "size": alloc.buffer.size,
                "handle": alloc.handle.handle_id,
            }
    registry = (
        deployment.gateway.registry
        if deployment.gateway is not None
        else deployment.tenant_registry
    )
    if registry is not None:
        state.tenants = registry.snapshot()
    return state
