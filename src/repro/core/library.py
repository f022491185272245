"""The userspace path-manager library.

The paper wraps all Netlink handling in a ~1900-line C library so that
subflow controllers only deal with callbacks and simple command helpers.
:class:`PathManagerLibrary` is that library: it decodes incoming event
messages, dispatches them to the callbacks the controller registered,
correlates command replies with their requests, and offers typed helpers
for every command.

The library also charges a small processing latency per dispatched event —
the userspace scheduling/dispatch cost that separates the kernel and
userspace curves of Figure 3.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Union

from repro.core import codec
from repro.core.commands import (
    Command,
    CommandReply,
    CreateSubflowCommand,
    GetConnInfoCommand,
    GetSubflowInfoCommand,
    ListSubflowsCommand,
    RemoveSubflowCommand,
    SetBackupCommand,
)
from repro.core.events import Event, EventType
from repro.core.netlink import NetlinkChannel
from repro.net.addressing import IPAddress
from repro.sim.latency import ConstantLatency, LatencyModel

EventCallback = Callable[[Event], None]
ReplyCallback = Callable[[CommandReply], None]


class PathManagerLibrary:
    """Userspace endpoint of the Netlink path manager."""

    def __init__(
        self,
        channel: NetlinkChannel,
        processing_latency: Optional[LatencyModel] = None,
        name: str = "pm-library",
    ) -> None:
        #: The underlying Netlink channel.
        self.channel = channel
        #: Library label.
        self.name = name
        channel.bind_user(self._on_message)
        # Userspace dispatch cost (callback scheduling inside the controller
        # process).  Kept small; CPU-stress scenarios replace it.
        self._processing = processing_latency if processing_latency is not None else ConstantLatency(1.5e-6)
        self._rng = channel.sim.random.substream(f"library:{name}")
        self._callbacks: dict[EventType, list[EventCallback]] = {}
        self._reply_callbacks: dict[int, ReplyCallback] = {}
        self._request_ids = itertools.count(1)
        self.events_received = 0
        self.events_dispatched = 0
        self.events_ignored = 0
        self.commands_sent = 0
        self.replies_received = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, event_type: EventType, callback: EventCallback) -> None:
        """Subscribe ``callback`` to every event of the given type."""
        self._callbacks.setdefault(EventType(event_type), []).append(callback)

    def register_all(self, callback: EventCallback) -> None:
        """Subscribe ``callback`` to every event type."""
        for event_type in EventType:
            self.register(event_type, callback)

    def unregister(self, event_type: EventType, callback: EventCallback) -> None:
        """Remove a previously registered callback (missing ones are ignored)."""
        callbacks = self._callbacks.get(EventType(event_type), [])
        if callback in callbacks:
            callbacks.remove(callback)

    # ------------------------------------------------------------------
    # incoming messages
    # ------------------------------------------------------------------
    def _on_message(self, message: bytes) -> None:
        kind = codec.message_kind(message)
        if kind == codec.KIND_EVENT:
            event = codec.decode_event(message)
            self.events_received += 1
            delay = self._processing.sample(self._rng)
            self.channel.sim.schedule(delay, self._dispatch_event, event)
        elif kind == codec.KIND_REPLY:
            reply = codec.decode_reply(message)
            self.replies_received += 1
            callback = self._reply_callbacks.pop(reply.request_id, None)
            if callback is not None:
                delay = self._processing.sample(self._rng)
                self.channel.sim.schedule(delay, callback, reply)

    def _dispatch_event(self, event: Event) -> None:
        callbacks = self._callbacks.get(event.event_type, [])
        if not callbacks:
            self.events_ignored += 1
            return
        self.events_dispatched += 1
        for callback in list(callbacks):
            callback(event)

    # ------------------------------------------------------------------
    # outgoing commands
    # ------------------------------------------------------------------
    def send_command(self, command: Command, on_reply: Optional[ReplyCallback] = None) -> int:
        """Send a fully constructed command; returns its request id."""
        if on_reply is not None:
            self._reply_callbacks[command.request_id] = on_reply
        self.commands_sent += 1
        self.channel.send_to_kernel(codec.encode_command(command))
        return command.request_id

    def next_request_id(self) -> int:
        """Allocate a fresh request identifier."""
        return next(self._request_ids)

    # -- typed helpers ----------------------------------------------------
    def create_subflow(
        self,
        token: int,
        local_address: Union[IPAddress, str],
        remote_address: Optional[Union[IPAddress, str]] = None,
        remote_port: int = 0,
        local_port: int = 0,
        backup: bool = False,
        on_reply: Optional[ReplyCallback] = None,
    ) -> int:
        """Ask the kernel to create a subflow from the given four-tuple."""
        command = CreateSubflowCommand(
            request_id=self.next_request_id(),
            token=token,
            local_address=IPAddress(local_address),
            local_port=local_port,
            remote_address=IPAddress(remote_address) if remote_address is not None else None,
            remote_port=remote_port,
            backup=backup,
        )
        return self.send_command(command, on_reply)

    def remove_subflow(
        self,
        token: int,
        subflow_id: int,
        reset: bool = True,
        on_reply: Optional[ReplyCallback] = None,
    ) -> int:
        """Ask the kernel to remove an existing subflow."""
        command = RemoveSubflowCommand(
            request_id=self.next_request_id(), token=token, subflow_id=subflow_id, reset=reset
        )
        return self.send_command(command, on_reply)

    def get_conn_info(self, token: int, on_reply: ReplyCallback) -> int:
        """Query connection-level state (data-level ``snd_una`` and friends)."""
        command = GetConnInfoCommand(request_id=self.next_request_id(), token=token)
        return self.send_command(command, on_reply)

    def get_subflow_info(self, token: int, subflow_id: int, on_reply: ReplyCallback) -> int:
        """Query one subflow's ``TCP_INFO`` (rto, pacing_rate, cwnd, ...)."""
        command = GetSubflowInfoCommand(
            request_id=self.next_request_id(), token=token, subflow_id=subflow_id
        )
        return self.send_command(command, on_reply)

    def list_subflows(self, token: int, on_reply: ReplyCallback) -> int:
        """List a connection's subflows."""
        command = ListSubflowsCommand(request_id=self.next_request_id(), token=token)
        return self.send_command(command, on_reply)

    def set_backup(
        self,
        token: int,
        subflow_id: int,
        backup: bool = True,
        on_reply: Optional[ReplyCallback] = None,
    ) -> int:
        """Change a subflow's backup priority."""
        command = SetBackupCommand(
            request_id=self.next_request_id(), token=token, subflow_id=subflow_id, backup=backup
        )
        return self.send_command(command, on_reply)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PathManagerLibrary {self.name} events={self.events_received} "
            f"commands={self.commands_sent}>"
        )
