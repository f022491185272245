"""The kernel/userspace message channel.

A :class:`NetlinkChannel` models the Netlink socket that connects the
kernel-side path manager and the userspace library: byte messages travel in
both directions, each crossing costs a sample of a latency model, and FIFO
ordering is preserved per direction (as a real Netlink socket does).

This crossing latency — plus the controller's own processing time — is
exactly the overhead that Figure 3 of the paper measures: there, the userspace
ndiffports controller opens its second subflow roughly 23 microseconds
later than the in-kernel one; the default model here yields about 17
(see :class:`NetlinkChannel`; docs/ARCHITECTURE.md has the arithmetic).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel, LogNormalLatency

MessageHandler = Callable[[bytes], None]


class NetlinkChannel:
    """A bidirectional, ordered, lossless message channel with latency."""

    def __init__(
        self,
        sim: Simulator,
        kernel_to_user: Optional[LatencyModel] = None,
        user_to_kernel: Optional[LatencyModel] = None,
        name: str = "netlink",
    ) -> None:
        #: The simulation engine the channel is scheduled on.
        self.sim = sim
        #: Channel label.
        self.name = name
        self._rng = sim.random.substream(f"netlink:{name}")
        # Default latency: a right-skewed distribution with mean 8 µs per
        # crossing.  Two crossings plus 1.5 µs each of library and command
        # processing against 2 µs in the kernel: ~17 µs of overhead where the
        # paper measures ~23 µs (calibrating to its CDF is ROADMAP item 1a).
        self._kernel_to_user = kernel_to_user if kernel_to_user is not None else LogNormalLatency(8e-6, sigma=0.4)
        self._user_to_kernel = user_to_kernel if user_to_kernel is not None else LogNormalLatency(8e-6, sigma=0.4)
        self._user_handler: Optional[MessageHandler] = None
        self._kernel_handler: Optional[MessageHandler] = None
        self._last_to_user = 0.0
        self._last_to_kernel = 0.0
        self.messages_to_user = 0
        self.messages_to_kernel = 0
        self.bytes_to_user = 0
        self.bytes_to_kernel = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_user(self, handler: MessageHandler) -> None:
        """Register the userspace message handler (the PM library)."""
        self._user_handler = handler

    def bind_kernel(self, handler: MessageHandler) -> None:
        """Register the kernel-side message handler (the Netlink path manager)."""
        self._kernel_handler = handler

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def send_to_user(self, message: bytes) -> None:
        """Deliver a message from the kernel side to userspace."""
        if self._user_handler is None:
            return
        self.messages_to_user += 1
        self.bytes_to_user += len(message)
        delay = self._kernel_to_user.sample(self._rng)
        deliver_at = max(self.sim.now + delay, self._last_to_user)
        self._last_to_user = deliver_at
        self.sim.schedule_at(deliver_at, self._deliver_user, message)

    def send_to_kernel(self, message: bytes) -> None:
        """Deliver a message from userspace to the kernel side."""
        if self._kernel_handler is None:
            return
        self.messages_to_kernel += 1
        self.bytes_to_kernel += len(message)
        delay = self._user_to_kernel.sample(self._rng)
        deliver_at = max(self.sim.now + delay, self._last_to_kernel)
        self._last_to_kernel = deliver_at
        self.sim.schedule_at(deliver_at, self._deliver_kernel, message)

    def _deliver_user(self, message: bytes) -> None:
        if self._user_handler is not None:
            self._user_handler(message)

    def _deliver_kernel(self, message: bytes) -> None:
        if self._kernel_handler is not None:
            self._kernel_handler(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetlinkChannel {self.name} to_user={self.messages_to_user} "
            f"to_kernel={self.messages_to_kernel}>"
        )
