"""The kernel-side Netlink path manager.

This is the reproduction of the ~1100 lines of kernel C the paper adds: a
path-manager module that implements the in-kernel path-manager interface
(:class:`repro.mptcp.path_manager.PathManager`) but, instead of deciding
anything itself, serialises every hook invocation into an event message and
pushes it to userspace over the :class:`~repro.core.netlink.NetlinkChannel`.
In the other direction it decodes command messages, executes each with the
method its class names as ``handler`` (create/remove subflow, state
queries, backup changes) and sends back a reply.
"""

from __future__ import annotations

from repro.core import codec
from repro.core.commands import (
    Command,
    CommandReply,
    CreateSubflowCommand,
    GetSubflowInfoCommand,
    RemoveSubflowCommand,
    ReplyStatus,
    SetBackupCommand,
)
from repro.core.events import (
    AddAddrEvent,
    ConnClosedEvent,
    ConnCreatedEvent,
    ConnEstablishedEvent,
    DelLocalAddrEvent,
    Event,
    NewLocalAddrEvent,
    RemAddrEvent,
    SubflowClosedEvent,
    SubflowEstablishedEvent,
    TimeoutEvent,
)
from repro.core.netlink import NetlinkChannel
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.path_manager import PathManager
from repro.mptcp.subflow import Subflow, SubflowOrigin
from repro.net.addressing import IPAddress
from repro.net.interface import Interface


class NetlinkPathManager(PathManager):
    """Kernel-side half of the SMAPP architecture."""

    name = "netlink"

    def __init__(self, channel: NetlinkChannel) -> None:
        super().__init__()
        self._channel = channel
        channel.bind_kernel(self._on_message)
        self.events_sent = 0
        self.commands_executed = 0
        self.command_errors = 0

    # ------------------------------------------------------------------
    # in-kernel path-manager hooks -> events to userspace
    # ------------------------------------------------------------------
    def on_connection_created(self, conn: MptcpConnection) -> None:
        initial = conn.initial_subflow
        self._emit(
            ConnCreatedEvent(
                time=self._now(),
                token=conn.local_token,
                four_tuple=initial.four_tuple,
                initial_subflow_id=initial.id,
                is_client=conn.is_client,
            )
        )

    def on_connection_established(self, conn: MptcpConnection) -> None:
        self._emit(
            ConnEstablishedEvent(
                time=self._now(),
                token=conn.local_token,
                four_tuple=conn.initial_subflow.four_tuple,
            )
        )

    def on_connection_closed(self, conn: MptcpConnection) -> None:
        self._emit(ConnClosedEvent(time=self._now(), token=conn.local_token))

    def on_subflow_established(self, conn: MptcpConnection, flow: Subflow) -> None:
        self._emit(
            SubflowEstablishedEvent(
                time=self._now(),
                token=conn.local_token,
                subflow_id=flow.id,
                four_tuple=flow.four_tuple,
                backup=flow.backup,
            )
        )

    def on_subflow_closed(self, conn: MptcpConnection, flow: Subflow, reason: int) -> None:
        self._emit(
            SubflowClosedEvent(
                time=self._now(),
                token=conn.local_token,
                subflow_id=flow.id,
                four_tuple=flow.four_tuple,
                reason=reason,
            )
        )

    def on_rto_timeout(self, conn: MptcpConnection, flow: Subflow, rto: float, consecutive: int) -> None:
        self._emit(
            TimeoutEvent(
                time=self._now(),
                token=conn.local_token,
                subflow_id=flow.id,
                rto=rto,
                consecutive=consecutive,
            )
        )

    def on_add_addr(self, conn: MptcpConnection, address_id: int, address: IPAddress, port: int) -> None:
        self._emit(
            AddAddrEvent(
                time=self._now(),
                token=conn.local_token,
                address_id=address_id,
                address=address,
                port=port,
            )
        )

    def on_rem_addr(self, conn: MptcpConnection, address_id: int) -> None:
        self._emit(RemAddrEvent(time=self._now(), token=conn.local_token, address_id=address_id))

    def on_local_address_up(self, iface: Interface) -> None:
        self._emit(NewLocalAddrEvent(time=self._now(), address=iface.address, iface_name=iface.name))

    def on_local_address_down(self, iface: Interface) -> None:
        self._emit(DelLocalAddrEvent(time=self._now(), address=iface.address, iface_name=iface.name))

    # ------------------------------------------------------------------
    # commands from userspace
    # ------------------------------------------------------------------
    def _on_message(self, message: bytes) -> None:
        command = codec.decode_command(message)
        # The kernel spends 1.5 us executing one command once the message has
        # crossed the boundary (table lookups, socket creation, ...).
        self._channel.sim.schedule(1.5e-6, self._execute, command)

    def _execute(self, command: Command) -> None:
        reply = self._run_command(command)
        if not reply.ok:
            self.command_errors += 1
        self.commands_executed += 1
        self._channel.send_to_user(codec.encode_reply(reply))

    def _run_command(self, command: Command) -> CommandReply:
        if self.stack is None:
            return CommandReply(command.request_id, ReplyStatus.REJECTED)
        conn = self.stack.connection_by_token(command.token)
        if conn is None:
            return CommandReply(command.request_id, ReplyStatus.UNKNOWN_CONNECTION)
        return getattr(self, command.handler)(command, conn)

    def _create_subflow(self, command: CreateSubflowCommand, conn: MptcpConnection) -> CommandReply:
        local_address = command.local_address
        if local_address == IPAddress("0.0.0.0"):
            addresses = self.stack.local_addresses()
            if not addresses:
                return CommandReply(command.request_id, ReplyStatus.REJECTED)
            local_address = addresses[0]
        flow = conn.create_subflow(
            local_address=local_address,
            remote_address=command.remote_address,
            remote_port=command.remote_port or None,
            local_port=command.local_port or None,
            backup=command.backup,
            origin=SubflowOrigin.CONTROLLER,
        )
        if flow is None:
            return CommandReply(command.request_id, ReplyStatus.REJECTED)
        return CommandReply(
            command.request_id,
            ReplyStatus.OK,
            {"subflow_id": flow.id, "local_port": flow.socket.local_port},
        )

    def _remove_subflow(self, command: RemoveSubflowCommand, conn: MptcpConnection) -> CommandReply:
        flow = conn.subflow_by_id(command.subflow_id)
        if flow is None:
            return CommandReply(command.request_id, ReplyStatus.UNKNOWN_SUBFLOW)
        if flow.is_closed:
            return CommandReply(command.request_id, ReplyStatus.OK, {"already_closed": True})
        conn.remove_subflow(flow, reset=command.reset)
        return CommandReply(command.request_id, ReplyStatus.OK)

    def _get_conn_info(self, command: Command, conn: MptcpConnection) -> CommandReply:
        return CommandReply(command.request_id, ReplyStatus.OK, conn.info().as_dict())

    def _get_subflow_info(self, command: GetSubflowInfoCommand, conn: MptcpConnection) -> CommandReply:
        flow = conn.subflow_by_id(command.subflow_id)
        if flow is None:
            return CommandReply(command.request_id, ReplyStatus.UNKNOWN_SUBFLOW)
        payload = flow.socket.info().as_dict()
        payload["subflow_id"] = flow.id
        payload["backup"] = flow.backup
        payload["closed"] = flow.is_closed
        return CommandReply(command.request_id, ReplyStatus.OK, payload)

    def _list_subflows(self, command: Command, conn: MptcpConnection) -> CommandReply:
        subflows = [
            {
                "subflow_id": flow.id,
                "established": flow.is_established,
                "closed": flow.is_closed,
                "backup": flow.backup,
                "local_address": str(flow.socket.local_address),
                "local_port": flow.socket.local_port,
                "remote_address": str(flow.socket.remote_address),
                "remote_port": flow.socket.remote_port,
            }
            for flow in conn.subflows
        ]
        return CommandReply(command.request_id, ReplyStatus.OK, {"subflows": subflows})

    def _set_backup(self, command: SetBackupCommand, conn: MptcpConnection) -> CommandReply:
        flow = conn.subflow_by_id(command.subflow_id)
        if flow is None:
            return CommandReply(command.request_id, ReplyStatus.UNKNOWN_SUBFLOW)
        conn.set_backup(flow, command.backup)
        return CommandReply(command.request_id, ReplyStatus.OK)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _emit(self, event: Event) -> None:
        self.events_sent += 1
        self._channel.send_to_user(codec.encode_event(event))

    def _now(self) -> float:
        return self._channel.sim.now
