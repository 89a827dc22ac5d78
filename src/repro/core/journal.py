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
``create_communicator`` app, comm_id, gpus, strategy
``install_strategy``    comm_id, strategy  (one per committed version)
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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

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
    service crash the way a WAL on durable storage would.
    """

    def __init__(self, telemetry: "TelemetryHub") -> None:
        self._records: List[JournalRecord] = []
        self._seq = itertools.count()
        self.telemetry = telemetry
        self.appends_total = 0
        self.compactions = 0
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
        """Drop records whose effects are fully superseded.

        Alloc/free pairs of freed buffers and the full history of
        destroyed communicators replay to nothing; dropping them keeps the
        journal bounded over a long-lived deployment.  Returns the number
        of records removed.  Replay of the compacted journal equals replay
        of the original.
        """
        state = replay_journal(self._records)
        freed = {
            rec.payload["buffer_id"]
            for rec in self._records
            if rec.op == "free"
        }
        destroyed = {
            rec.payload["comm_id"]
            for rec in self._records
            if rec.op == "destroy_communicator"
        }
        # Keep the issue frontier of live communicators intact: only the
        # latest collective_issued per live comm matters for next_seq.
        latest_issue: Dict[object, int] = {}
        for rec in self._records:
            if rec.op == "collective_issued":
                latest_issue[rec.payload["comm_id"]] = rec.seq
        # Tenant records: a tenant may be revoked and later re-registered,
        # so only the records after its last revoke matter — and of those,
        # only the register plus the latest full-state update.
        last_revoke: Dict[object, int] = {}
        for rec in self._records:
            if rec.op == "tenant_revoke":
                last_revoke[rec.payload["tenant"]] = rec.seq
        latest_tenant_update: Dict[object, int] = {}
        for rec in self._records:
            if rec.op == "tenant_update" and rec.seq > last_revoke.get(
                rec.payload["tenant"], -1
            ):
                latest_tenant_update[rec.payload["tenant"]] = rec.seq
        live_tenants = set(state.tenants)

        def keep(rec: JournalRecord) -> bool:
            if rec.op in ("alloc", "free"):
                return rec.payload["buffer_id"] not in freed
            if rec.op in (
                "create_communicator",
                "install_strategy",
                "membership_change",
                "destroy_communicator",
            ):
                return rec.payload["comm_id"] not in destroyed
            if rec.op == "collective_issued":
                comm_id = rec.payload["comm_id"]
                if comm_id in destroyed:
                    return False
                return latest_issue.get(comm_id) == rec.seq
            if rec.op == "tenant_register":
                tenant = rec.payload["tenant"]
                return tenant in live_tenants and rec.seq > last_revoke.get(
                    tenant, -1
                )
            if rec.op == "tenant_update":
                tenant = rec.payload["tenant"]
                return (
                    tenant in live_tenants
                    and latest_tenant_update.get(tenant) == rec.seq
                )
            if rec.op == "tenant_revoke":
                return False
            return rec.op in _INFO_OPS

        kept = [rec for rec in self._records if keep(rec)]
        removed = len(self._records) - len(kept)
        self._records = kept
        if replay_journal(kept) != state:  # pragma: no cover - invariant
            raise JournalError("compaction changed replay state")
        self.compactions += 1
        if removed:
            self.telemetry.metrics.counter(
                "mccs_journal_compacted_total",
                "Journal records dropped by compaction.",
            ).inc(records=removed)
            self._records_gauge.set(len(self._records))
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
    #: comm_id -> {app, gpus, version, epoch, next_seq, strategies}
    communicators: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: tenant_id -> {key_hash, quota} (live gateway accounts)
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def diff(self, other: "ControlPlaneState") -> List[str]:
        """Human-readable mismatches (empty when states are equal)."""
        lines: List[str] = []
        if self.buffers != other.buffers:
            mine, theirs = set(self.buffers), set(other.buffers)
            lines.append(
                f"buffer tables differ: only-left={sorted(mine - theirs)} "
                f"only-right={sorted(theirs - mine)} "
                f"changed={[b for b in mine & theirs if self.buffers[b] != other.buffers[b]]}"
            )
        if self.communicators != other.communicators:
            mine, theirs = set(self.communicators), set(other.communicators)
            lines.append(
                f"communicators differ: only-left={sorted(mine - theirs)} "
                f"only-right={sorted(theirs - mine)} "
                f"changed={[c for c in mine & theirs if self.communicators[c] != other.communicators[c]]}"
            )
        if self.tenants != other.tenants:
            mine, theirs = set(self.tenants), set(other.tenants)
            lines.append(
                f"tenant tables differ: only-left={sorted(mine - theirs)} "
                f"only-right={sorted(theirs - mine)} "
                f"changed={[t for t in mine & theirs if self.tenants[t] != other.tenants[t]]}"
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
            strategy = dict(p["strategy"])
            state.communicators[p["comm_id"]] = {
                "app": p["app"],
                "gpus": list(p["gpus"]),
                "version": strategy["version"],
                "epoch": 0,
                "membership_epoch": 0,
                "next_seq": 0,
                "strategies": {strategy["version"]: strategy},
            }
        elif rec.op == "install_strategy":
            comm = state.communicators.get(p["comm_id"])
            if comm is None:
                raise JournalError(
                    f"journal installs strategy on unknown comm {p['comm_id']}"
                )
            strategy = dict(p["strategy"])
            comm["version"] = strategy["version"]
            comm["epoch"] += 1
            comm["strategies"][strategy["version"]] = strategy
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
            "version": comm.strategy.version,
            "epoch": len(comm.strategy_history) - 1,
            "membership_epoch": comm.membership_epoch,
            "next_seq": comm.next_seq,
            "strategies": {
                version: strategy_descriptor(strategy)
                for version, strategy in comm.strategy_history.items()
            },
        }
    gateway = getattr(deployment, "gateway", None)
    registry = (
        gateway.registry
        if gateway is not None
        else getattr(deployment, "tenant_registry", None)
    )
    if registry is not None:
        state.tenants = registry.snapshot()
    return state
