"""In-process async transport between tenant apps and the gateway.

The real MCCS front door would be an HTTP/gRPC listener; in the
simulation the transport is a pair of one-way simulated-latency hops
(request in, response out) so that thousands of tenants can drive the
gateway concurrently on the discrete-event clock without threads.
Responses are always delivered asynchronously — even synchronous
rejections arrive one transport latency later — which keeps tenant code
honest about the service boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from .gateway import GatewayRequest, GatewayResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .gateway import ServiceGateway

#: One-way latency of each hop, request in and response out (seconds).
TRANSPORT_LATENCY = 50e-6


@dataclass
class PendingCall:
    """One in-flight request/response exchange."""

    request: GatewayRequest
    response: Optional[GatewayResponse] = None
    on_response: Optional[Callable[[GatewayResponse], None]] = None

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.ok

    def _deliver(self, response: GatewayResponse) -> None:
        self.response = response
        if self.on_response is not None:
            self.on_response(response)


class InProcessTransport:
    """Simulated-latency duplex channel to one gateway."""

    def __init__(self, gateway: "ServiceGateway") -> None:
        self.gateway = gateway
        self.sim = gateway.sim
        self.submitted = 0
        self.delivered = 0

    def submit(
        self,
        request: GatewayRequest,
        on_response: Optional[Callable[[GatewayResponse], None]] = None,
    ) -> PendingCall:
        """Send a request; the response arrives via the pending call."""
        pending = PendingCall(request=request, on_response=on_response)
        self.submitted += 1

        def respond(response: GatewayResponse) -> None:
            def arrive() -> None:
                self.delivered += 1
                pending._deliver(response)

            self.sim.call_in(TRANSPORT_LATENCY, arrive)

        self.sim.call_in(
            TRANSPORT_LATENCY, lambda: self.gateway.handle(request, respond)
        )
        return pending


class GatewayClient:
    """Tenant-side convenience wrapper over the transport.

    Mirrors the REST surface: each helper builds the request body the
    matching gateway route validates.  All calls are asynchronous; pass
    ``on_response`` (or poll :attr:`PendingCall.response`) to consume the
    result after the simulator has advanced.
    """

    def __init__(self, transport: InProcessTransport, api_key: Optional[str] = None) -> None:
        self.transport = transport
        self.api_key = api_key

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        *,
        ttl: Optional[float] = None,
        on_response: Optional[Callable[[GatewayResponse], None]] = None,
    ) -> PendingCall:
        return self.transport.submit(
            GatewayRequest(
                request_id=next(self.transport.gateway.request_ids),
                method=method,
                path=path,
                api_key=self.api_key,
                body=body or {},
                ttl=ttl,
            ),
            on_response,
        )

    # ------------------------------------------------------------------
    # REST surface helpers
    # ------------------------------------------------------------------
    def health(self, **kw) -> PendingCall:
        return self.request("GET", "/v1/health", **kw)

    def alloc(self, gpu_id: int, size: int, fill: Optional[float] = None, **kw) -> PendingCall:
        body: Dict[str, object] = {"gpu": gpu_id, "size": size}
        if fill is not None:
            body["fill"] = fill
        return self.request("POST", "/v1/buffers", body, **kw)

    def create_comm(self, gpu_ids: Sequence[int], **kw) -> PendingCall:
        return self.request("POST", "/v1/comms", {"gpus": list(gpu_ids)}, **kw)

    def destroy_comm(self, comm_id: int, **kw) -> PendingCall:
        return self.request("POST", "/v1/comms/destroy", {"comm": comm_id}, **kw)

    def collective(
        self,
        comm_id: int,
        nbytes: int,
        *,
        kind: str = "all_reduce",
        send_buffers: Optional[Sequence[int]] = None,
        recv_buffers: Optional[Sequence[int]] = None,
        root: int = 0,
        ttl: Optional[float] = None,
        on_response: Optional[Callable[[GatewayResponse], None]] = None,
    ) -> PendingCall:
        body: Dict[str, object] = {"comm": comm_id, "kind": kind, "nbytes": nbytes}
        if send_buffers is not None:
            body["send_buffers"] = list(send_buffers)
        if recv_buffers is not None:
            body["recv_buffers"] = list(recv_buffers)
        if root:
            body["root"] = root
        return self.request(
            "POST", "/v1/collectives", body, ttl=ttl, on_response=on_response
        )

    def slo(self, **kw) -> PendingCall:
        return self.request("GET", "/v1/slo", **kw)
