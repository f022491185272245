"""Tests for the Netlink codec, channel, kernel PM and userspace library."""

import dataclasses
import struct

import pytest

from repro.core import codec
from repro.core.commands import (
    COMMAND_CLASSES,
    CommandType,
    CreateSubflowCommand,
    GetConnInfoCommand,
    GetSubflowInfoCommand,
    ListSubflowsCommand,
    CommandReply,
    RemoveSubflowCommand,
    ReplyStatus,
    SetBackupCommand,
)
from repro.core.controller import ControllerState, SubflowController
from repro.core.events import (
    EVENT_CLASSES,
    AddAddrEvent,
    ConnClosedEvent,
    ConnCreatedEvent,
    ConnEstablishedEvent,
    DelLocalAddrEvent,
    EventType,
    NewLocalAddrEvent,
    RemAddrEvent,
    SubflowClosedEvent,
    SubflowEstablishedEvent,
    TimeoutEvent,
)
from repro.core.library import PathManagerLibrary
from repro.core.netlink import NetlinkChannel
from repro.core.netlink_pm import NetlinkPathManager
from repro.mptcp.connection import ConnectionInfo
from repro.net.addressing import FourTuple, ip
from repro.sim.latency import ConstantLatency
from repro.tcp.info import TcpInfo
from tests.helpers import build_dual_homed_rig

TUPLE = FourTuple(ip("10.0.0.1"), 41000, ip("10.0.0.2"), 80)

EVENTS = [
    ConnCreatedEvent(1.5, 0xAABB, TUPLE, 1, True),
    ConnEstablishedEvent(1.6, 0xAABB, TUPLE),
    ConnClosedEvent(9.0, 0xAABB),
    SubflowEstablishedEvent(2.0, 0xAABB, 2, TUPLE, True),
    SubflowClosedEvent(3.0, 0xAABB, 2, TUPLE, 110),
    TimeoutEvent(4.0, 0xAABB, 1, 1.6, 3),
    AddAddrEvent(5.0, 0xAABB, 2, ip("10.1.0.2"), 8080),
    RemAddrEvent(6.0, 0xAABB, 2),
    NewLocalAddrEvent(7.0, ip("10.1.0.1"), "cell0"),
    DelLocalAddrEvent(8.0, ip("10.1.0.1"), "cell0"),
]

COMMANDS = [
    CreateSubflowCommand(1, 0xAABB, ip("10.1.0.1"), 0, ip("10.1.0.2"), 80, True),
    CreateSubflowCommand(2, 0xAABB, ip("10.1.0.1")),
    RemoveSubflowCommand(3, 0xAABB, 4, False),
    GetConnInfoCommand(4, 0xAABB),
    GetSubflowInfoCommand(5, 0xAABB, 7),
    ListSubflowsCommand(6, 0xAABB),
    SetBackupCommand(7, 0xAABB, 2, True),
]


class TestCodec:
    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: type(e).__name__)
    def test_event_roundtrip(self, event):
        decoded = codec.decode_event(codec.encode_event(event))
        assert decoded == event
        assert decoded.event_type == event.event_type

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: f"{type(c).__name__}-{c.request_id}")
    def test_command_roundtrip(self, command):
        decoded = codec.decode_command(codec.encode_command(command))
        assert decoded == command

    def test_reply_roundtrip_with_nested_payload(self):
        reply = CommandReply(
            9,
            ReplyStatus.OK,
            {
                "rto": 0.204,
                "snd_una": 123456,
                "state": "ESTABLISHED",
                "backup": True,
                "nothing": None,
                "subflows": [{"subflow_id": 1, "pacing_rate": 1.25e6}, {"subflow_id": 2, "pacing_rate": 2.5e5}],
            },
        )
        decoded = codec.decode_reply(codec.encode_reply(reply))
        assert decoded.request_id == 9
        assert decoded.ok
        assert decoded.payload["snd_una"] == 123456
        assert decoded.payload["state"] == "ESTABLISHED"
        assert decoded.payload["backup"] is True
        assert decoded.payload["nothing"] is None
        assert decoded.payload["subflows"][1]["subflow_id"] == 2

    def test_message_kind(self):
        assert codec.message_kind(codec.encode_event(EVENTS[0])) == codec.KIND_EVENT
        assert codec.message_kind(codec.encode_command(COMMANDS[0])) == codec.KIND_COMMAND
        assert codec.message_kind(codec.encode_reply(CommandReply(1, ReplyStatus.OK))) == codec.KIND_REPLY

    def test_kind_mismatch_rejected(self):
        event_bytes = codec.encode_event(EVENTS[0])
        with pytest.raises(codec.CodecError):
            codec.decode_command(event_bytes)
        with pytest.raises(codec.CodecError):
            codec.decode_reply(event_bytes)

    def test_short_message_rejected(self):
        with pytest.raises(codec.CodecError):
            codec.message_kind(b"\x01")


# The parent commit's bytes (PR 19, hand-written if/elif codec), one instance
# per message class: whatever derives the codec must reproduce every one.
GOLDEN_EVENTS = [
    (EVENTS[0], "0100010000001b0000aabb3ff80000000000000a0000010a000002a0280050000101"),
    (EVENTS[1], "010002000000180000aabb3ff999999999999a0a0000010a000002a0280050"),
    (EVENTS[2], "0100030000000c0000aabb4022000000000000"),
    (EVENTS[3], "0100040000001b0000aabb400000000000000000020a0000010a000002a028005001"),
    (EVENTS[4], "0100050000001e0000aabb400800000000000000020a0000010a000002a02800500000006e"),
    (EVENTS[5], "010006000000180000aabb401000000000000000013ff999999999999a0003"),
    (EVENTS[6], "010007000000130000aabb4014000000000000020a0100021f90"),
    (EVENTS[7], "0100080000000d0000aabb401800000000000002"),
    (EVENTS[8], "01000900000013401c0000000000000a010001000563656c6c30"),
    (DelLocalAddrEvent(8.0, ip("10.1.0.1"), "w\u00e4n0"), "01000a0000001340200000000000000a010001000577c3a46e30"),
]
GOLDEN_COMMANDS = [
    (COMMANDS[0], "02006500000016000000010000aabb0a0100010000010a010002005001"),
    (COMMANDS[1], "02006500000016000000020000aabb0a01000100000000000000000000"),
    (COMMANDS[2], "0200660000000b000000030000aabb000400"),
    (COMMANDS[3], "02006700000008000000040000aabb"),
    (COMMANDS[4], "0200680000000a000000050000aabb0007"),
    (COMMANDS[5], "02006900000008000000060000aabb"),
    (COMMANDS[6], "02006a0000000b000000070000aabb000201"),
]
GOLDEN_REPLIES = [
    (
        CommandReply(
            9,
            ReplyStatus.OK,
            {
                "rto": 0.204,
                "snd_una": 123456,
                "state": "ESTABLISHED",
                "backup": True,
                "nothing": None,
                "subflows": [{"subflow_id": 1, "pacing_rate": 1.25e6}, {"subflow_id": 2, "pacing_rate": 2.5e5}],
            },
        ),
        "030000000000bb000000090000050006000372746f013fca1cac083126e90007736e645f756e6100000000000001e240"
        "0005737461746502000b45535441424c495348454400066261636b7570030100076e6f7468696e67060008737562666c"
        "6f7773040002050002000a737562666c6f775f6964000000000000000001000b706163696e675f7261746501413312d0"
        "00000000050002000a737562666c6f775f6964000000000000000002000b706163696e675f7261746501410e84800000"
        "0000",
    ),
    (CommandReply(10, ReplyStatus.UNKNOWN_SUBFLOW), "030000000000090000000a0002050000"),
]
GOLDEN = [
    *((codec.encode_event, codec.decode_event, message, wire) for message, wire in GOLDEN_EVENTS),
    *((codec.encode_command, codec.decode_command, message, wire) for message, wire in GOLDEN_COMMANDS),
    *((codec.encode_reply, codec.decode_reply, message, wire) for message, wire in GOLDEN_REPLIES),
]


class TestWireFormatIsPinned:
    @pytest.mark.parametrize(
        "encode, decode, message, wire", GOLDEN, ids=[f"{type(g[2]).__name__}-{i}" for i, g in enumerate(GOLDEN)]
    )
    def test_bytes_are_the_committed_ones(self, encode, decode, message, wire):
        assert encode(message).hex() == wire
        decoded = decode(bytes.fromhex(wire))
        assert decoded == message
        assert type(decoded) is type(message)

    def test_every_message_class_has_a_golden_row(self):
        assert {type(message) for message, _ in GOLDEN_EVENTS} == set(EVENT_CLASSES.values())
        assert {type(message) for message, _ in GOLDEN_COMMANDS} == set(COMMAND_CLASSES.values())


class TestMessageTable:
    """Each class declares its message once; nothing may drift from that."""

    def test_registries_cover_the_enums(self):
        assert set(EVENT_CLASSES) == set(EventType)
        assert set(COMMAND_CLASSES) == set(CommandType)
        for number, cls in EVENT_CLASSES.items():
            assert cls.event_type is number
        for number, cls in COMMAND_CLASSES.items():
            assert cls.command_type is number

    @pytest.mark.parametrize(
        "cls", [*EVENT_CLASSES.values(), *COMMAND_CLASSES.values()], ids=lambda cls: cls.__name__
    )
    def test_wire_names_exactly_the_fields(self, cls):
        names = [entry.split(":")[0] for entry in cls.wire.split()]
        assert len(names) == len(set(names))
        fields = {field.name for field in dataclasses.fields(cls)}
        # The two local-address events carry no connection: ``token`` is a
        # defaulted field kept for controllers and never crosses the wire.
        off_wire = {"token"} if cls in (NewLocalAddrEvent, DelLocalAddrEvent) else set()
        assert set(names) == fields - off_wire

    def test_every_hook_is_a_controller_method(self):
        hooks = [cls.hook for cls in EVENT_CLASSES.values()]
        assert len(set(hooks)) == len(hooks)
        for hook in hooks:
            assert callable(getattr(SubflowController, hook))
            assert callable(getattr(ControllerState, hook))

    def test_every_handler_is_a_distinct_kernel_method(self):
        handlers = [cls.handler for cls in COMMAND_CLASSES.values()]
        assert len(set(handlers)) == len(handlers)
        for handler in handlers:
            assert callable(getattr(NetlinkPathManager, handler))

    def test_each_event_reaches_the_hook_it_always_did(self, sim):
        # The hook names are API for controller subclasses: in EVENTS order.
        hooks = [
            "on_conn_created", "on_conn_established", "on_conn_closed", "on_subflow_established",
            "on_subflow_closed", "on_timeout", "on_add_addr", "on_rem_addr", "on_local_addr_up",
            "on_local_addr_down",
        ]  # fmt: skip
        controller = SubflowController(PathManagerLibrary(NetlinkChannel(sim)))
        seen = []
        for hook in hooks:
            setattr(controller, hook, lambda event, hook=hook: seen.append((hook, event)))
        for event in EVENTS:
            controller._handle_event(event)
        assert seen == list(zip(hooks, EVENTS))
        assert controller.state.connections[0xAABB].subflows[2].close_reason == 110


def _addresses_a_subflow(cls):
    return "subflow_id" in {field.name for field in dataclasses.fields(cls)}


def _command_for(cls, request_id, token, subflow_id):
    """A well-formed ``cls`` for connection ``token``, naming ``subflow_id``
    where the command addresses a subflow (every other field defaulted)."""
    extra = {"subflow_id": subflow_id} if _addresses_a_subflow(cls) else {}
    return cls(request_id, token, **extra)


#: The payload keys of each command's OK reply.
PAYLOAD_KEYS = {
    CreateSubflowCommand: {"subflow_id", "local_port"},
    RemoveSubflowCommand: set(),
    GetConnInfoCommand: {field.name for field in dataclasses.fields(ConnectionInfo)},
    GetSubflowInfoCommand: {field.name for field in dataclasses.fields(TcpInfo)}
    | {"subflow_id", "backup", "closed"},
    ListSubflowsCommand: {"subflows"},
    SetBackupCommand: set(),
}
SUBFLOW_COMMANDS = [cls for cls in COMMAND_CLASSES.values() if _addresses_a_subflow(cls)]


class TestCommandsAgainstTheKernel:
    """Every command, sent by the library of a live ``SmappManager`` on
    ``dual_homed`` and executed by its Netlink path manager: the reply's
    status and payload, and the command's effect on the connection."""

    @pytest.fixture
    def live(self):
        rig = build_dual_homed_rig(use_smapp=True)
        _, conn = rig.connect_bulk(5_000_000, close_when_done=False)
        rig.sim.run(until=1.0)
        assert conn.established and not conn.closed
        return rig, conn

    @staticmethod
    def ask(rig, cls, token, subflow_id=1):
        library = rig.smapp.library
        command = _command_for(cls, library.next_request_id(), token, subflow_id)
        replies = []
        library.send_command(command, replies.append)
        rig.sim.run(until=rig.sim.now + 0.1)
        (reply,) = replies
        assert reply.request_id == command.request_id
        return reply

    @pytest.mark.parametrize("cls", COMMAND_CLASSES.values(), ids=lambda cls: cls.__name__)
    def test_ok_reply_carries_its_payload(self, live, cls):
        rig, conn = live
        initial = conn.initial_subflow
        reply = self.ask(rig, cls, conn.local_token, initial.id)
        assert reply.status is ReplyStatus.OK
        assert set(reply.payload) == PAYLOAD_KEYS[cls]
        if cls is CreateSubflowCommand:
            assert conn.subflow_by_id(reply.payload["subflow_id"]) is not None
        elif cls is RemoveSubflowCommand:
            assert initial.is_closed
        elif cls is GetConnInfoCommand:
            assert reply.payload["token"] == conn.local_token
        elif cls is GetSubflowInfoCommand:
            assert reply.payload["subflow_id"] == initial.id
            assert reply.payload["state"] == "ESTABLISHED"
        elif cls is ListSubflowsCommand:
            listed = reply.payload["subflows"]
            assert [entry["subflow_id"] for entry in listed] == [flow.id for flow in conn.subflows]
            assert set(listed[0]) == {
                "subflow_id", "established", "closed", "backup",
                "local_address", "local_port", "remote_address", "remote_port",
            }
        else:
            assert cls is SetBackupCommand
            assert initial.backup

    @pytest.mark.parametrize("cls", COMMAND_CLASSES.values(), ids=lambda cls: cls.__name__)
    def test_unknown_connection(self, live, cls):
        rig, conn = live
        reply = self.ask(rig, cls, conn.local_token ^ 1)
        assert (reply.status, reply.payload) == (ReplyStatus.UNKNOWN_CONNECTION, {})

    @pytest.mark.parametrize("cls", SUBFLOW_COMMANDS, ids=lambda cls: cls.__name__)
    def test_unknown_subflow(self, live, cls):
        rig, conn = live
        reply = self.ask(rig, cls, conn.local_token, subflow_id=99)
        assert (reply.status, reply.payload) == (ReplyStatus.UNKNOWN_SUBFLOW, {})

    def test_removing_a_closed_subflow_reports_already_closed(self, live):
        rig, conn = live
        assert self.ask(rig, RemoveSubflowCommand, conn.local_token).payload == {}
        reply = self.ask(rig, RemoveSubflowCommand, conn.local_token)
        assert (reply.status, reply.payload) == (ReplyStatus.OK, {"already_closed": True})

    @pytest.mark.parametrize("cls", COMMAND_CLASSES.values(), ids=lambda cls: cls.__name__)
    def test_rejected_without_a_stack(self, sim, cls):
        channel = NetlinkChannel(sim)
        kernel = NetlinkPathManager(channel)
        library = PathManagerLibrary(channel)
        replies = []
        library.send_command(_command_for(cls, 1, 7, 1), replies.append)
        sim.run()
        assert [(reply.status, reply.payload) for reply in replies] == [(ReplyStatus.REJECTED, {})]
        assert (kernel.commands_executed, kernel.command_errors) == (1, 1)


def _header(kind, number, payload):
    return codec.HEADER.pack(kind, number, len(payload)) + payload


_TIMEOUT = codec.encode_event(EVENTS[5])
_LOCAL_ADDR = codec.encode_event(EVENTS[8])
_REPLY = codec.encode_reply(CommandReply(1, ReplyStatus.OK, {"state": "ESTABLISHED"}))
MALFORMED = {
    "event cut short": (codec.decode_event, _TIMEOUT[:-3]),
    "event with trailing bytes": (codec.decode_event, _TIMEOUT + b"xx"),
    "length field too small": (codec.decode_event, codec.HEADER.pack(codec.KIND_EVENT, 6, 4) + _TIMEOUT[7:]),
    "payload shorter than the layout": (codec.decode_event, _header(codec.KIND_EVENT, 6, _TIMEOUT[7:11])),
    "payload longer than the layout": (codec.decode_event, _header(codec.KIND_EVENT, 6, _TIMEOUT[7:] + b"x")),
    "unknown event type": (codec.decode_event, codec.HEADER.pack(codec.KIND_EVENT, 99, 0)),
    "unknown command type": (codec.decode_command, codec.HEADER.pack(codec.KIND_COMMAND, 999, 8) + bytes(8)),
    "an event number in a command": (codec.decode_command, _header(codec.KIND_COMMAND, 3, bytes(12))),
    "command cut short": (codec.decode_command, codec.encode_command(COMMANDS[0])[:-1]),
    "command payload too short": (codec.decode_command, _header(codec.KIND_COMMAND, 104, bytes(9))),
    "name longer than what follows": (codec.decode_event, _header(codec.KIND_EVENT, 9, _LOCAL_ADDR[7:-2])),
    "name is not UTF-8": (codec.decode_event, _header(codec.KIND_EVENT, 9, _LOCAL_ADDR[7:-2] + b"\xff\xfe")),
    "header cut short": (codec.decode_event, _TIMEOUT[:5]),
    "reply cut short": (codec.decode_reply, _REPLY[:-3]),
    "reply payload cut short": (codec.decode_reply, _header(codec.KIND_REPLY, 0, _REPLY[7:-3])),
    "reply without a payload": (codec.decode_reply, _header(codec.KIND_REPLY, 0, _REPLY[7:11])),
    "reply with trailing bytes": (codec.decode_reply, _header(codec.KIND_REPLY, 0, _REPLY[7:] + b"\x06")),
    "reply string is not UTF-8": (codec.decode_reply, _header(codec.KIND_REPLY, 0, _REPLY[7:-2] + b"\xff\xfe")),
    "reply with an unknown status": (codec.decode_reply, _header(codec.KIND_REPLY, 0, b"\0\0\0\1\0\x09\x05\0\0")),
    "reply with an unknown value tag": (codec.decode_reply, _header(codec.KIND_REPLY, 0, b"\0\0\0\1\0\0\x09")),
    "reply that is not a dictionary": (codec.decode_reply, _header(codec.KIND_REPLY, 0, b"\0\0\0\1\0\0\x06")),
}


class TestMalformedMessages:
    """Bytes from the other side of the boundary fail as ``CodecError`` only."""

    @pytest.mark.parametrize("decode, data", MALFORMED.values(), ids=MALFORMED.keys())
    def test_raises_codec_error(self, decode, data):
        with pytest.raises(codec.CodecError):
            decode(data)

    def test_the_cause_is_kept(self):
        with pytest.raises(codec.CodecError) as caught:
            codec.decode_event(_header(codec.KIND_EVENT, 6, _TIMEOUT[7:11]))
        assert isinstance(caught.value.__cause__, struct.error)


class TestNetlinkChannel:
    def test_messages_delivered_with_latency(self, sim):
        channel = NetlinkChannel(sim, ConstantLatency(10e-6), ConstantLatency(10e-6))
        received = []
        channel.bind_user(lambda msg: received.append((sim.now, msg)))
        channel.send_to_user(b"hello")
        sim.run()
        assert received[0][1] == b"hello"
        assert received[0][0] == pytest.approx(10e-6)

    def test_fifo_order_preserved(self, sim):
        channel = NetlinkChannel(sim, name="fifo")
        received = []
        channel.bind_user(received.append)
        for index in range(50):
            channel.send_to_user(bytes([index]))
        sim.run()
        assert received == [bytes([index]) for index in range(50)]

    def test_both_directions_and_counters(self, sim):
        channel = NetlinkChannel(sim)
        to_kernel, to_user = [], []
        channel.bind_kernel(to_kernel.append)
        channel.bind_user(to_user.append)
        channel.send_to_kernel(b"cmd")
        channel.send_to_user(b"event")
        sim.run()
        assert to_kernel == [b"cmd"] and to_user == [b"event"]
        assert channel.messages_to_kernel == 1
        assert channel.messages_to_user == 1
        assert channel.bytes_to_user == 5

    def test_unbound_side_drops_silently(self, sim):
        channel = NetlinkChannel(sim)
        channel.send_to_user(b"nobody")
        sim.run()


class TestLibraryDispatch:
    def build(self, sim):
        channel = NetlinkChannel(sim, ConstantLatency(1e-6), ConstantLatency(1e-6))
        library = PathManagerLibrary(channel, processing_latency=ConstantLatency(1e-6))
        return channel, library

    def test_registered_callback_receives_event(self, sim):
        channel, library = self.build(sim)
        seen = []
        library.register(EventType.TIMEOUT, seen.append)
        channel.send_to_user(codec.encode_event(TimeoutEvent(1.0, 5, 1, 0.4, 2)))
        sim.run()
        assert len(seen) == 1 and seen[0].rto == pytest.approx(0.4)

    def test_unregistered_events_counted_as_ignored(self, sim):
        channel, library = self.build(sim)
        channel.send_to_user(codec.encode_event(ConnClosedEvent(1.0, 5)))
        sim.run()
        assert library.events_ignored == 1

    def test_register_all_and_unregister(self, sim):
        channel, library = self.build(sim)
        seen = []
        library.register_all(seen.append)
        library.unregister(EventType.CONN_CLOSED, seen.append)
        channel.send_to_user(codec.encode_event(ConnClosedEvent(1.0, 5)))
        channel.send_to_user(codec.encode_event(TimeoutEvent(1.0, 5, 1, 0.4, 2)))
        sim.run()
        assert len(seen) == 1

    def test_command_reply_correlation(self, sim):
        channel, library = self.build(sim)
        # Fake kernel: answer every command with an OK reply echoing the id.
        def kernel(message):
            command = codec.decode_command(message)
            channel.send_to_user(codec.encode_reply(CommandReply(command.request_id, ReplyStatus.OK, {"echo": 1})))

        channel.bind_kernel(kernel)
        replies = []
        library.create_subflow(5, "10.0.0.1", on_reply=replies.append)
        library.get_conn_info(5, replies.append)
        sim.run()
        assert len(replies) == 2
        assert all(reply.ok for reply in replies)
        assert library.commands_sent == 2
        assert library.replies_received == 2

    def test_request_ids_unique(self, sim):
        channel, library = self.build(sim)
        ids = {library.next_request_id() for _ in range(100)}
        assert len(ids) == 100
