"""Tests for the simulated transport."""

import pytest

from repro.net.address import DeviceClass, NodeAddress
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.transport import Transport
from repro.util.errors import (
    MessageDropped,
    RemoteError,
    SlotUnavailableError,
    UnreachableError,
)


def make_transport(latency=0.001):
    return Transport(latency=ConstantLatency(latency))


def echo_handler(msg):
    return {"echo": msg.payload}


def attach(transport, node_id, handler=echo_handler, device=DeviceClass.WORKSTATION):
    addr = NodeAddress(node_id, device)
    transport.register(addr, handler)
    return addr


class TestRegistration:
    def test_rpc_between_registered_nodes(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        result = t.rpc("a", "b", "ping", {"x": 1})
        assert result == {"echo": {"x": 1}}

    def test_rpc_to_unknown_node_is_unreachable(self):
        t = make_transport()
        attach(t, "a")
        with pytest.raises(UnreachableError):
            t.rpc("a", "ghost", "ping", {})

    def test_rpc_from_unattached_source_fails(self):
        t = make_transport()
        attach(t, "b")
        with pytest.raises(UnreachableError):
            t.rpc("ghost", "b", "ping", {})

    def test_unregister_makes_node_unreachable(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.unregister("b")
        with pytest.raises(UnreachableError):
            t.rpc("a", "b", "ping", {})

    def test_known_nodes_sorted(self):
        t = make_transport()
        attach(t, "zeta")
        attach(t, "alpha")
        assert t.known_nodes() == ["alpha", "zeta"]

    def test_address_of(self):
        t = make_transport()
        addr = attach(t, "a", device=DeviceClass.PDA)
        assert t.address_of("a") == addr
        with pytest.raises(UnreachableError):
            t.address_of("nope")


class TestClockAndStats:
    def test_rpc_advances_clock_both_legs(self):
        t = make_transport(latency=0.5)
        attach(t, "a")
        attach(t, "b")
        t.rpc("a", "b", "ping", {})
        assert t.clock.now() == pytest.approx(1.0)

    def test_send_advances_clock_one_leg(self):
        t = make_transport(latency=0.5)
        attach(t, "a")
        attach(t, "b", handler=lambda m: {})
        t.send("a", "b", "note", {})
        assert t.clock.now() == pytest.approx(0.5)

    def test_stats_count_messages_and_replies(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.rpc("a", "b", "ping", {})
        snap = t.stats.snapshot()
        assert snap.messages == 2
        assert snap.replies == 1
        assert snap.by_kind["ping"] == 2

    def test_stats_delta(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.rpc("a", "b", "ping", {})
        before = t.stats.snapshot()
        t.rpc("a", "b", "ping", {})
        delta = t.stats.snapshot().delta(before)
        assert delta.messages == 2

    def test_bytes_accounted(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.rpc("a", "b", "ping", {"blob": "x" * 100})
        assert t.stats.bytes > 100


class TestFaults:
    def test_down_node_unreachable(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.faults.set_down("b")
        with pytest.raises(UnreachableError):
            t.rpc("a", "b", "ping", {})
        assert t.stats.unreachable == 1

    def test_node_comes_back_up(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.faults.set_down("b")
        t.faults.set_up("b")
        assert t.rpc("a", "b", "ping", {}) == {"echo": {}}

    def test_partition_blocks_cross_group_traffic(self):
        t = make_transport()
        for n in ["a", "b", "c"]:
            attach(t, n)
        t.faults.partition({"a"}, {"b", "c"})
        with pytest.raises(UnreachableError):
            t.rpc("a", "b", "ping", {})
        assert t.rpc("b", "c", "ping", {}) == {"echo": {}}

    def test_heal_partition(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.faults.partition({"a"}, {"b"})
        t.faults.heal_partition()
        assert t.rpc("a", "b", "ping", {}) == {"echo": {}}

    def test_unpartitioned_node_reaches_all_groups(self):
        t = make_transport()
        for n in ["a", "b", "backbone"]:
            attach(t, n)
        t.faults.partition({"a"}, {"b"})
        assert t.rpc("backbone", "a", "ping", {}) == {"echo": {}}
        assert t.rpc("backbone", "b", "ping", {}) == {"echo": {}}

    def test_drop_rule(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        remove = t.faults.add_drop_rule(lambda m: m.kind == "ping")
        with pytest.raises(MessageDropped):
            t.rpc("a", "b", "ping", {})
        assert t.stats.dropped == 1
        remove()
        assert t.rpc("a", "b", "ping", {}) == {"echo": {}}


class TestErrorMarshalling:
    def test_library_error_comes_back_typed(self):
        t = make_transport()
        attach(t, "a")

        def failing(msg):
            raise SlotUnavailableError("slot 3 is reserved")

        attach(t, "b", handler=failing)
        with pytest.raises(SlotUnavailableError, match="slot 3"):
            t.rpc("a", "b", "reserve", {})

    def test_arbitrary_error_becomes_remote_error(self):
        t = make_transport()
        attach(t, "a")

        def failing(msg):
            raise KeyError("oops")

        attach(t, "b", handler=failing)
        with pytest.raises(RemoteError) as exc_info:
            t.rpc("a", "b", "x", {})
        assert exc_info.value.error_type == "KeyError"

    def test_nested_remote_error_round_trips(self):
        # b's handler calls c, whose failure reaches b as a RemoteError;
        # b lets it escape, so a's transport rebuilds it from its args.
        t = make_transport()
        attach(t, "a")

        def failing(msg):
            raise KeyError("oops")

        def forwarding(msg):
            return t.rpc("b", "c", "inner", {})

        attach(t, "b", handler=forwarding)
        attach(t, "c", handler=failing)
        with pytest.raises(RemoteError) as exc_info:
            t.rpc("a", "b", "outer", {})
        err = exc_info.value
        assert str(err) == "remote KeyError: 'oops'"
        assert err.error_type == "KeyError"
        assert err.remote_message == "'oops'"

    def test_none_result_becomes_empty_dict(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b", handler=lambda m: None)
        assert t.rpc("a", "b", "x", {}) == {}
