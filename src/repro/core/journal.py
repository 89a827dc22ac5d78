"""Write-ahead state journal for the MCCS control plane.

The control plane (services, frontend engines, proxy engines) is an
in-memory object graph; a service crash would strand every tenant whose
buffers and communicators it tracked.  The journal fixes that the way
databases do: every state-mutating control operation — allocate/free,
communicator create/destroy, strategy install, collective issue — appends
one typed, JSON-serializable :class:`JournalRecord` *before* the mutation
is applied.  A crashed engine is then reconstructed by deterministic
replay (:func:`replay_journal`), and the reconstruction is validated
against the live object graph by comparing :class:`ControlPlaneState`
snapshots.

Record schema (``op`` -> payload keys):

======================  ====================================================
``alloc``               app, host, gpu, buffer_id, size, handle_id
``free``                app, host, buffer_id
``create_communicator`` app, comm_id, gpus, strategy, epoch,
                        membership_epoch, next_seq  (0, 0, 0 when live)
``install_strategy``    comm_id, strategy  (one per fresh commit)
``collective_issued``   app, comm_id, seq, kind, bytes [, trace]
``membership_change``   app, comm_id, epoch, kind, gpus, left, joined
``destroy_communicator`` app, comm_id
``tenant_register``     tenant, key_hash, quota
``tenant_update``       tenant, key_hash, quota  (full-state replacement)
``tenant_revoke``       tenant
``service_crash``       host, generation   (informational)
``service_restart``     host, generation, replayed  (informational)
``service_upgrade``     host, component, generation  (informational)
======================  ====================================================

Strategy payloads use :func:`strategy_descriptor`: ``{algorithm, ring,
channels, version, routes: [[src, dst, channel, route_id], ...]}``.

The log is checkpointed: :func:`checkpoint` is the inverse of
:func:`replay_journal`, and :meth:`StateJournal.compact` replaces the log
by the checkpoint of the state it replays to.  A checkpoint is one record
per live object: a ``tenant_register`` per tenant, an ``alloc`` per
buffer, and a ``create_communicator`` per communicator that carries its
current GPUs, current strategy, strategy and membership epochs and issue
frontier.  Checkpoint records carry only the keys replay reads, and
informational records replay to nothing, so they go.
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
    from .strategy import CollectiveStrategy

#: Ops that mutate replayable state (anything else is informational).
_STATE_OPS = {
    "alloc",
    "free",
    "create_communicator",
    "install_strategy",
    "collective_issued",
    "membership_change",
    "destroy_communicator",
    "tenant_register",
    "tenant_update",
    "tenant_revoke",
}
_INFO_OPS = {"service_crash", "service_restart", "service_upgrade"}

#: The log checkpoints itself when it reaches ``max(CHECKPOINT_FLOOR,
#: 2 x its size after the last checkpoint)`` records: amortised O(1) per
#: append, and never more than twice what the live state needs.
CHECKPOINT_FLOOR = 1024


def strategy_descriptor(strategy: "CollectiveStrategy") -> Dict[str, object]:
    """JSON-serializable description of a strategy (journal payload form)."""
    return {
        "algorithm": strategy.algorithm,
        "ring": list(strategy.ring.order),
        "channels": strategy.channels,
        "version": strategy.version,
        "routes": sorted(
            [src, dst, channel, route_id]
            for (src, dst, channel), route_id in strategy.route_map().items()
        ),
    }


@dataclass(frozen=True)
class JournalRecord:
    """One appended control operation."""

    seq: int
    time: float
    op: str
    payload: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "time": self.time,
            "op": self.op,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JournalRecord":
        return cls(
            seq=int(data["seq"]),
            time=float(data["time"]),
            op=str(data["op"]),
            payload=dict(data.get("payload", {})),
        )


class StateJournal:
    """Append-only write-ahead log of control-plane mutations.

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
        self._append_series = {
            op: appends.labels(op=op) for op in _STATE_OPS | _INFO_OPS
        }
        self._records_gauge = telemetry.metrics.gauge(
            "mccs_journal_records",
            "Records currently retained in the state journal.",
        ).labels()

    def __len__(self) -> int:
        return len(self._records)

    def append(self, time: float, op: str, **payload: object) -> JournalRecord:
        if op not in _STATE_OPS and op not in _INFO_OPS:
            raise JournalError(f"unknown journal op {op!r}")
        record = JournalRecord(
            seq=next(self._seq), time=time, op=op, payload=payload
        )
        # Round-trip through JSON so a non-serializable payload fails at
        # append time (write-ahead means the record must be durable-form).
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

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([record.to_dict() for record in self._records])

    @classmethod
    def from_json(cls, text: str, telemetry: "TelemetryHub") -> "StateJournal":
        journal = cls(telemetry)
        records = [JournalRecord.from_dict(item) for item in json.loads(text)]
        journal._records = records
        last = records[-1].seq if records else -1
        journal._seq = itertools.count(last + 1)
        return journal

    # ------------------------------------------------------------------
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
    """Comparable snapshot of the deployment's control-plane state.

    Two sources produce it — :func:`snapshot_deployment` from the live
    object graph and :func:`replay_journal` purely from the journal — and
    crash/restart validation asserts they are equal.
    """

    #: buffer_id -> {app, host, gpu, size, handle}
    buffers: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: comm_id -> {app, gpus, strategy, epoch, membership_epoch, next_seq}
    communicators: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: tenant_id -> {key_hash, quota} (live gateway accounts)
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def diff(self, other: "ControlPlaneState") -> List[str]:
        """Human-readable mismatches (empty when states are equal)."""
        lines: List[str] = []
        for what, left, right in (
            ("buffer tables", self.buffers, other.buffers),
            ("communicators", self.communicators, other.communicators),
            ("tenant tables", self.tenants, other.tenants),
        ):
            if left != right:
                lines.append(
                    f"{what} differ: only-left={sorted(left.keys() - right)} "
                    f"only-right={sorted(right.keys() - left)} "
                    f"changed={[k for k in left.keys() & right if left[k] != right[k]]}"
                )
        return lines


def replay_journal(records: List[JournalRecord]) -> ControlPlaneState:
    """Reconstruct control-plane state purely from journal records."""
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
        elif rec.op == "create_communicator":
            state.communicators[p["comm_id"]] = {
                "app": p["app"],
                "gpus": list(p["gpus"]),
                "strategy": dict(p["strategy"]),
                "epoch": p["epoch"],
                "membership_epoch": p["membership_epoch"],
                "next_seq": p["next_seq"],
            }
        elif rec.op == "install_strategy":
            comm = state.communicators.get(p["comm_id"])
            if comm is None:
                raise JournalError(
                    f"journal installs strategy on unknown comm {p['comm_id']}"
                )
            comm["strategy"] = dict(p["strategy"])
            comm["epoch"] += 1
        elif rec.op == "collective_issued":
            comm = state.communicators.get(p["comm_id"])
            if comm is None:
                raise JournalError(
                    f"journal issues collective on unknown comm {p['comm_id']}"
                )
            comm["next_seq"] = max(comm["next_seq"], p["seq"] + 1)
        elif rec.op == "membership_change":
            # The rank-set cutover; the strategy for the new world arrives
            # in the subsequent install_strategy record (which bumps the
            # strategy epoch as usual — membership does not double-bump).
            comm = state.communicators.get(p["comm_id"])
            if comm is None:
                raise JournalError(
                    f"journal changes membership of unknown comm {p['comm_id']}"
                )
            comm["gpus"] = list(p["gpus"])
            comm["membership_epoch"] = p["epoch"]
        elif rec.op == "destroy_communicator":
            if p["comm_id"] not in state.communicators:
                raise JournalError(
                    f"journal destroys unknown comm {p['comm_id']}"
                )
            del state.communicators[p["comm_id"]]
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
        # informational ops replay to nothing
    return state


def checkpoint(state: ControlPlaneState) -> List[JournalRecord]:
    """The inverse of :func:`replay_journal`: records, numbered from 0,
    that replay to ``state`` — one per live tenant, buffer and
    communicator."""
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
    ops += [
        ("create_communicator", {
            "app": comm["app"], "comm_id": comm_id, "gpus": comm["gpus"],
            "strategy": comm["strategy"], "epoch": comm["epoch"],
            "membership_epoch": comm["membership_epoch"],
            "next_seq": comm["next_seq"],
        })
        for comm_id, comm in state.communicators.items()
    ]
    return [
        JournalRecord(seq=seq, time=0.0, op=op, payload=payload)
        for seq, (op, payload) in enumerate(ops)
    ]


def snapshot_deployment(deployment: "MccsDeployment") -> ControlPlaneState:
    """Snapshot the live object graph in journal-comparable form."""
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
    for comm in deployment.communicators():
        state.communicators[comm.comm_id] = {
            "app": comm.app_id,
            "gpus": [gpu.global_id for gpu in comm.gpus],
            "strategy": strategy_descriptor(comm.strategy),
            "epoch": comm.strategy_epoch,
            "membership_epoch": comm.membership_epoch,
            "next_seq": comm.next_seq,
        }
    registry = (
        deployment.gateway.registry
        if deployment.gateway is not None
        else deployment.tenant_registry
    )
    if registry is not None:
        state.tenants = registry.snapshot()
    return state
