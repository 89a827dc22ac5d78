"""Shared transport substrate: connections and flow launching.

Connection tables serve both NCCL's transport agent
(:mod:`repro.baselines.nccl`) and MCCS's communicators; the launcher is
the baseline's (the service injects per rank, from
:mod:`repro.core.communicator`).
"""

from .connections import Connection, ConnectionTable, EdgeId, connection_key
from .launcher import FlowGate, FlowTransport, LaunchHandle

__all__ = [
    "Connection",
    "ConnectionTable",
    "EdgeId",
    "FlowGate",
    "FlowTransport",
    "LaunchHandle",
    "connection_key",
]
