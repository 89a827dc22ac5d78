"""Persistent tenant registry: accounts, API keys, quotas, QoS classes.

Tenants are first-class control-plane state.  Every mutation — register,
quota/key update, revoke — is appended to the deployment's
:class:`~repro.core.journal.StateJournal` *before* it is applied, so the
account table survives a gateway crash exactly the way buffers and
communicators survive a service crash: by deterministic replay
(:func:`~repro.core.journal.replay_journal` reconstructs the table, and
``MccsDeployment.verify_journal()`` diffs it against the live registry).

The journal stores only salted key *hashes*; raw keys exist in the
account objects handed to the tenant at mint time and are validated by
re-hashing, never by comparison against stored plaintext.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

from ..netsim.errors import PolicyError
from .errors import AuthenticationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.deployment import MccsDeployment
    from ..core.journal import JournalRecord


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant serving quotas and QoS class.

    Attributes:
        qos_class: Admission/SLO class (``high``/``normal``/``low`` in the
            default policies).
        rate: Sustained request rate (requests/second) of the tenant's
            token bucket.
        burst: Bucket capacity — how many requests may arrive back-to-back
            before throttling starts.
        max_queued: Most requests this tenant may hold in the gateway's
            class queues at once (per-tenant backpressure).
        max_inflight: Bulkhead width — dispatch slots this tenant may
            occupy concurrently; a stuck tenant can wedge at most this
            many shared slots.
        max_communicators: Communicator handles the tenant may hold.
    """

    qos_class: str = "normal"
    rate: float = 50.0
    burst: float = 20.0
    max_queued: int = 32
    max_inflight: int = 4
    max_communicators: int = 8

    def to_payload(self) -> Dict[str, object]:
        return {
            "qos_class": self.qos_class,
            "rate": self.rate,
            "burst": self.burst,
            "max_queued": self.max_queued,
            "max_inflight": self.max_inflight,
            "max_communicators": self.max_communicators,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TenantQuota":
        return cls(
            qos_class=str(payload["qos_class"]),
            rate=float(payload["rate"]),
            burst=float(payload["burst"]),
            max_queued=int(payload["max_queued"]),
            max_inflight=int(payload["max_inflight"]),
            max_communicators=int(payload["max_communicators"]),
        )


@dataclass(frozen=True)
class ApiKey:
    """A minted API key: the raw secret plus its stored hash."""

    raw: str
    key_hash: str


@dataclass
class TenantAccount:
    """One registered tenant."""

    tenant_id: str
    key: ApiKey
    quota: TenantQuota
    created_at: float
    revoked: bool = False
    #: Bumped on every key rotation (part of the key derivation input).
    key_generation: int = 0
    #: Live communicator handles opened through the gateway.
    comm_ids: List[int] = field(default_factory=list)


def _hash_key(raw: str) -> str:
    return hashlib.sha256(raw.encode()).hexdigest()


class TenantRegistry:
    """The journaled tenant account table.

    Args:
        deployment: Owning deployment; mutations append to its journal.
        secret: Provider-side key-derivation secret.  Keys are
            deterministic per (secret, tenant, generation) so seeded
            experiments replay exactly; a real deployment would draw them
            from an HSM instead.
    """

    def __init__(self, deployment: "MccsDeployment", *, secret: str = "mccs") -> None:
        self.deployment = deployment
        self.secret = secret
        self._accounts: Dict[str, TenantAccount] = {}
        self._by_hash: Dict[str, str] = {}
        # The journal's live-state snapshot reads tenant tables through
        # this attribute (the gateway keeps it pointed at its registry).
        deployment.tenant_registry = self

    def __len__(self) -> int:
        return sum(1 for a in self._accounts.values() if not a.revoked)

    # ------------------------------------------------------------------
    def _mint(self, tenant_id: str, generation: int) -> ApiKey:
        digest = hashlib.sha256(
            f"{self.secret}:{tenant_id}:{generation}".encode()
        ).hexdigest()
        raw = f"mk_{tenant_id}_{digest[:20]}"
        return ApiKey(raw=raw, key_hash=_hash_key(raw))

    def _journal(self, op: str, **payload: object) -> None:
        self.deployment.journal.append(self.deployment.sim.now, op, **payload)

    # ------------------------------------------------------------------
    def register(
        self, tenant_id: str, quota: Optional[TenantQuota] = None
    ) -> TenantAccount:
        """Create an account and mint its API key (journaled)."""
        if tenant_id in self._accounts and not self._accounts[tenant_id].revoked:
            raise PolicyError(f"tenant {tenant_id!r} is already registered")
        quota = quota if quota is not None else TenantQuota()
        key = self._mint(tenant_id, 0)
        self._journal(
            "tenant_register",
            tenant=tenant_id,
            key_hash=key.key_hash,
            quota=quota.to_payload(),
        )
        account = TenantAccount(
            tenant_id=tenant_id,
            key=key,
            quota=quota,
            created_at=self.deployment.sim.now,
        )
        self._accounts[tenant_id] = account
        self._by_hash[key.key_hash] = tenant_id
        return account

    def authenticate(self, raw_key: Optional[str]) -> TenantAccount:
        """Resolve an API key to its live account; typed 401 otherwise."""
        if not raw_key:
            raise AuthenticationError("request carried no API key")
        tenant_id = self._by_hash.get(_hash_key(raw_key))
        if tenant_id is None:
            raise AuthenticationError("unknown API key")
        account = self._accounts[tenant_id]
        if account.revoked:
            raise AuthenticationError(f"API key of {tenant_id!r} was revoked")
        return account

    def account(self, tenant_id: str) -> TenantAccount:
        try:
            return self._accounts[tenant_id]
        except KeyError:
            raise PolicyError(f"unknown tenant {tenant_id!r}") from None

    def accounts(self) -> List[TenantAccount]:
        return [a for a in self._accounts.values() if not a.revoked]

    # ------------------------------------------------------------------
    def set_quota(self, tenant_id: str, quota: TenantQuota) -> TenantAccount:
        """Replace a tenant's quotas/class (journaled full-state update)."""
        account = self.account(tenant_id)
        self._journal(
            "tenant_update",
            tenant=tenant_id,
            key_hash=account.key.key_hash,
            quota=quota.to_payload(),
        )
        account.quota = quota
        return account

    def rotate_key(self, tenant_id: str) -> ApiKey:
        """Mint a fresh key; the old one stops authenticating immediately."""
        account = self.account(tenant_id)
        account.key_generation += 1
        key = self._mint(tenant_id, account.key_generation)
        self._journal(
            "tenant_update",
            tenant=tenant_id,
            key_hash=key.key_hash,
            quota=account.quota.to_payload(),
        )
        del self._by_hash[account.key.key_hash]
        account.key = key
        self._by_hash[key.key_hash] = tenant_id
        return key

    def revoke(self, tenant_id: str) -> None:
        """Close an account; its key stops authenticating (journaled)."""
        account = self.account(tenant_id)
        if account.revoked:
            return
        self._journal("tenant_revoke", tenant=tenant_id)
        account.revoked = True
        self._by_hash.pop(account.key.key_hash, None)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Journal-comparable view of the live account table."""
        return {
            tenant_id: {
                "key_hash": account.key.key_hash,
                "quota": account.quota.to_payload(),
            }
            for tenant_id, account in self._accounts.items()
            if not account.revoked
        }

    @classmethod
    def restore(
        cls,
        deployment: "MccsDeployment",
        records: Optional[List["JournalRecord"]] = None,
        *,
        secret: str = "mccs",
    ) -> "TenantRegistry":
        """Rebuild a registry purely from journal records (crash restart).

        Raw keys are re-derived from the key-derivation secret and
        validated against the journaled hashes, so a restored gateway
        keeps authenticating the keys tenants already hold.
        """
        from ..core.journal import replay_journal

        if records is None:
            records = deployment.journal.records()
        state = replay_journal(records)
        registry = cls(deployment, secret=secret)
        for tenant_id, info in state.tenants.items():
            quota = TenantQuota.from_payload(dict(info["quota"]))
            # The journaled hash tells us which generation's key is live.
            generation = 0
            key = registry._mint(tenant_id, generation)
            while key.key_hash != info["key_hash"] and generation < 1024:
                generation += 1
                key = registry._mint(tenant_id, generation)
            if key.key_hash != info["key_hash"]:
                # Key was minted under a different secret: keep the hash
                # (it still authenticates raw keys) without a raw copy.
                key = ApiKey(raw="", key_hash=str(info["key_hash"]))
            account = TenantAccount(
                tenant_id=tenant_id,
                key=key,
                quota=quota,
                created_at=0.0,
                key_generation=generation,
            )
            registry._accounts[tenant_id] = account
            registry._by_hash[key.key_hash] = tenant_id
        return registry

    def quota_with(self, tenant_id: str, **changes: object) -> TenantQuota:
        """Convenience: the tenant's quota with fields replaced."""
        return replace(self.account(tenant_id).quota, **changes)
