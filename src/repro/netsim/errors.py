"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so that
applications can catch everything coming out of the reproduction with a
single ``except`` clause while still being able to discriminate between the
network-simulator, cluster-substrate and MCCS-service layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NetSimError(ReproError):
    """Base class for network-simulator errors."""


class UnknownNodeError(NetSimError):
    """A topology lookup referenced a node that does not exist."""


class UnknownLinkError(NetSimError):
    """A flow referenced a link id that is not part of the topology."""


class NoPathError(NetSimError):
    """No path exists between the requested endpoints."""


class SimulationError(NetSimError):
    """The discrete-event engine reached an inconsistent state."""


class FaultError(NetSimError):
    """Base class for injected infrastructure faults.

    Raised (or attached to the affected flows / communicators) when a
    fault plan takes down part of the fabric; the concrete subclass says
    which component died.
    """


class LinkDownError(FaultError):
    """A link went down, or a flow was injected over a down link."""


class NicFailedError(FaultError):
    """A NIC failed; its fabric endpoint is unreachable."""


class HostCrashedError(FaultError):
    """A host crashed, taking its GPUs, NICs and proxy engines with it."""


class ServiceCrashedError(FaultError):
    """The per-host MCCS service process crashed (host and GPUs survive).

    Unlike :class:`HostCrashedError`, the infrastructure is intact: the
    service can be restarted and its control-plane state reconstructed by
    replaying the state journal (``repro.core.journal``).
    """


class ClusterError(ReproError):
    """Base class for cluster-substrate errors."""


class AllocationError(ClusterError):
    """A GPU memory allocation failed (out of memory / bad free)."""


class PlacementError(ClusterError):
    """A job could not be placed onto the cluster."""


class CommunicatorError(ReproError):
    """Misuse of a communicator (rank mismatch, wrong world size...)."""


class MccsError(ReproError):
    """Base class for MCCS service-side errors."""


class InvalidBufferError(MccsError):
    """A collective referenced memory outside any registered allocation.

    This mirrors the validation step of the paper's Section 4.1: "The
    service will check whether the data buffer user passes is within a
    valid allocation before performing the operation."
    """


class ReconfigurationError(MccsError):
    """The reconfiguration barrier protocol was violated."""


class CollectiveTimeoutError(MccsError):
    """A collective missed its completion deadline (stalled or dead peer)."""


class HeartbeatTimeoutError(MccsError):
    """A proxy engine stopped heartbeating; its host is presumed dead."""


class PolicyError(MccsError):
    """A policy module produced an inapplicable decision."""


class ServiceUnavailableError(MccsError):
    """A shim request reached a host whose MCCS service is down.

    The condition is transient when a supervisor (or a scheduled
    ``engine_restart`` fault event) will restart the service; the shim's
    retry policy decides whether to re-issue or surface the error.
    """


class AdmissionRejectedError(MccsError):
    """Admission control shed this request (tenant over its QoS quota).

    A rejection is a *decision*, not a transient failure: the shim must
    not retry it; the tenant is expected to back off or lower its rate.
    """


class UpgradeError(MccsError):
    """A live service upgrade could not be performed as requested."""


class JournalError(MccsError):
    """The state journal was used or replayed inconsistently."""


class MembershipChangeError(MccsError):
    """An elastic grow/shrink request could not be carried out.

    Raised synchronously for inapplicable requests (unknown ranks, a
    membership change already in flight, shrinking below two ranks) and
    delivered to ``on_failed`` when the drain barrier fails terminally.
    """


class SynthesisError(MccsError):
    """Base class for collective-program synthesis errors."""


class ProgramValidationError(SynthesisError):
    """An IR program failed the synthesis validator.

    Concrete subclasses name the invariant that was violated; every one
    carries the offending program's name so batch synthesis can report
    which candidate was rejected.
    """


class MalformedProgramError(ProgramValidationError):
    """Structurally invalid IR: bad ranks, chunks, channels or op shapes."""


class UnmatchedTransferError(ProgramValidationError):
    """A send without its matching receive (or vice versa)."""


class MissingChunkError(ProgramValidationError):
    """An instruction uses a chunk its rank does not hold yet."""


class DeadlockError(ProgramValidationError):
    """The program's dependency graph contains a wait cycle."""


class PostconditionError(ProgramValidationError):
    """The program terminates with the wrong chunk placement for its kind."""
