"""Multipath TCP.

This package reproduces the data plane of the Linux MPTCP kernel the paper
builds on: connections made of TCP subflows, the MP_CAPABLE / MP_JOIN
handshakes with token-based demultiplexing, DSS data-sequence mappings and
data acknowledgements, packet scheduling across subflows (lowest-RTT by
default), reinjection of data stranded on failing subflows, backup-flag
semantics, ADD_ADDR/REMOVE_ADDR advertisement, and the *in-kernel* path
managers (``full-mesh`` and ``ndiffports``) the paper compares against.

The control-plane delegation that is the paper's contribution lives in
:mod:`repro.core`.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "MptcpConfig": "repro.mptcp.config",
    "MptcpConnection": "repro.mptcp.connection",
    "DssMapping": "repro.mptcp.connection",
    "MptcpStack": "repro.mptcp.stack",
    "Subflow": "repro.mptcp.subflow",
    "SubflowOrigin": "repro.mptcp.subflow",
    "PathManager": "repro.mptcp.path_manager",
    "PassivePathManager": "repro.mptcp.path_manager",
    "FullMeshPathManager": "repro.mptcp.path_manager",
    "NdiffportsPathManager": "repro.mptcp.path_manager",
    "Scheduler": "repro.mptcp.scheduler",
    "LowestRttScheduler": "repro.mptcp.scheduler",
    "RoundRobinScheduler": "repro.mptcp.scheduler",
    "RedundantScheduler": "repro.mptcp.scheduler",
    "available_schedulers": "repro.mptcp.scheduler",
    "make_scheduler": "repro.mptcp.scheduler",
    "MpCapableOption": "repro.mptcp.options",
    "MpJoinOption": "repro.mptcp.options",
    "DssOption": "repro.mptcp.options",
    "AddAddrOption": "repro.mptcp.options",
    "RemoveAddrOption": "repro.mptcp.options",
    "MpPrioOption": "repro.mptcp.options",
    "derive_token": "repro.mptcp.token",
    "generate_key": "repro.mptcp.token",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
