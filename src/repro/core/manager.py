"""Convenience wiring of the full SMAPP architecture on one host.

Experiments need the same assembly over and over: an MPTCP stack whose
kernel path manager is the Netlink one, a Netlink channel, the userspace
library bound to it, and a subflow controller on top.  :class:`SmappManager`
builds that stack of components and primes the controller with the host's
initial local addresses (which, on a real system, the controller would read
from a netdevice dump at startup).
"""

from __future__ import annotations

from typing import Optional, Type, TypeVar

from repro.core.controller import SubflowController
from repro.core.library import PathManagerLibrary
from repro.core.netlink import NetlinkChannel
from repro.core.netlink_pm import NetlinkPathManager
from repro.mptcp.config import MptcpConfig
from repro.mptcp.stack import MptcpStack
from repro.net.host import Host
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel

ControllerT = TypeVar("ControllerT", bound=SubflowController)


class SmappManager:
    """One host running the SMAPP architecture end to end."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: Optional[MptcpConfig] = None,
        kernel_to_user_latency: Optional[LatencyModel] = None,
        user_to_kernel_latency: Optional[LatencyModel] = None,
        library_processing: Optional[LatencyModel] = None,
    ) -> None:
        #: Manager label: the host name.
        self.name = host.name
        self.channel = NetlinkChannel(
            sim,
            kernel_to_user=kernel_to_user_latency,
            user_to_kernel=user_to_kernel_latency,
            name=self.name,
        )
        self.netlink_pm = NetlinkPathManager(self.channel)
        self.stack = MptcpStack(sim, host, config=config, path_manager=self.netlink_pm, name=self.name)
        self.library = PathManagerLibrary(
            self.channel, processing_latency=library_processing, name=f"{self.name}-lib"
        )
        self.controllers: list[SubflowController] = []
        #: The host this manager runs on.
        self.host = host

    def attach_controller(self, controller_class: Type[ControllerT], **kwargs) -> ControllerT:
        """Instantiate, prime and start a subflow controller.

        ``kwargs`` are passed to the controller constructor after the
        library argument.
        """
        controller = controller_class(self.library, **kwargs)
        controller.state.prime_local_addresses(
            (iface.name, iface.address)
            for iface in self.host.interfaces.values()
            if iface.is_up
        )
        controller.start()
        self.controllers.append(controller)
        return controller
