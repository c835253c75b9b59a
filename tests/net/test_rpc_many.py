"""Tests for scatter-gather batches (Transport.rpc_many)."""

import pytest

from repro.net.address import DeviceClass, NodeAddress
from repro.net.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.net.transport import RpcCall, Transport
from repro.util.errors import (
    MessageDropped,
    RemoteError,
    SlotUnavailableError,
    UnreachableError,
)


class PerDestLatency(LatencyModel):
    """Fixed one-way delay per destination node (src pays nothing)."""

    def __init__(self, delays, default=0.001):
        self.delays = dict(delays)
        self.default = default

    def delay(self, src, dst, message):
        return self.delays.get(dst.node_id, self.default)


def attach(transport, node_id, handler=None, device=DeviceClass.WORKSTATION):
    transport.register(
        NodeAddress(node_id, device), handler or (lambda msg: {"echo": msg.payload})
    )


def make_world(latency=None, nodes=("a", "b", "c", "d")):
    t = Transport(latency=latency or ConstantLatency(0.5))
    for n in nodes:
        attach(t, n)
    return t


class TestHappyPath:
    def test_outcomes_in_call_order_with_values(self):
        t = make_world()
        outcomes = t.rpc_many(
            "a", [RpcCall("b", "ping", {"i": 1}), RpcCall("c", "ping", {"i": 2})]
        )
        assert [o.dst for o in outcomes] == ["b", "c"]
        assert all(o.ok for o in outcomes)
        assert outcomes[0].value == {"echo": {"i": 1}}
        assert outcomes[1].value == {"echo": {"i": 2}}

    def test_bare_tuples_accepted_as_calls(self):
        t = make_world()
        outcomes = t.rpc_many("a", [("b", "ping", {"i": 1}), ("c", "ping")])
        assert all(o.ok for o in outcomes)

    def test_clock_advances_by_max_leg_not_sum(self):
        # Replies travel back to "a" (0.1). Leg b: 0.1 + 0.1; leg c:
        # 0.4 + 0.1. The batch takes the slower leg's round trip (0.5),
        # not the 0.7 a sequential pair of rpcs would take.
        t = make_world(latency=PerDestLatency({"b": 0.1, "c": 0.4, "a": 0.1}))
        t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping")])
        assert t.clock.now() == pytest.approx(0.5)

    def test_per_leg_delays_still_summed_into_stats(self):
        t = make_world(latency=PerDestLatency({"b": 0.1, "c": 0.4, "a": 0.1}))
        t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping")])
        # Network busy time is the sum over all 4 message legs: 0.2 + 0.5.
        assert t.stats.latency == pytest.approx(0.7)
        assert t.stats.messages == 4

    def test_batch_counters_and_histogram(self):
        t = make_world()
        t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping"), RpcCall("d", "ping")])
        assert t.stats.concurrent_batches == 1
        assert t.stats.batched_legs == 3
        # one batch, recorded at its critical-path delay of 1.0 s
        digest = t.stats.registry.digest("net", "net.batch_latency")
        assert (digest.count, digest.min, digest.max) == (1, 1.0, 1.0)

    def test_empty_batch_is_free(self):
        t = make_world()
        assert t.rpc_many("a", []) == []
        assert t.clock.now() == 0.0
        assert t.stats.concurrent_batches == 0


class TestPerLegFaults:
    def test_down_destination_is_a_leg_outcome_not_an_exception(self):
        t = make_world()
        t.faults.set_down("c")
        outcomes = t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping")])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, UnreachableError)
        assert outcomes[1].delay == 0.0

    def test_failed_leg_does_not_slow_the_batch(self):
        # c is both down and slow; only b's delay reaches the clock.
        t = make_world(latency=PerDestLatency({"b": 0.1, "c": 9.0, "a": 0.1}))
        t.faults.set_down("c")
        t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping")])
        assert t.clock.now() == pytest.approx(0.2)

    def test_drop_rule_matches_one_leg(self):
        t = make_world()
        t.faults.add_drop_rule(lambda msg: msg.dst == "d")
        outcomes = t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("d", "ping")])
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, MessageDropped)

    def test_remote_library_error_keeps_its_type(self):
        t = make_world()

        def refuse(msg):
            raise SlotUnavailableError("slot is taken")

        attach(t, "err", refuse)
        outcomes = t.rpc_many("a", [RpcCall("err", "ping"), RpcCall("b", "ping")])
        assert isinstance(outcomes[0].error, SlotUnavailableError)
        assert outcomes[1].ok

    def test_remote_crash_becomes_remote_error(self):
        t = make_world()

        def boom(msg):
            raise ValueError("bad input")

        attach(t, "err", boom)
        outcomes = t.rpc_many("a", [RpcCall("err", "ping")])
        assert isinstance(outcomes[0].error, RemoteError)
        assert "bad input" in str(outcomes[0].error)

    def test_erroring_handler_still_costs_request_and_reply(self):
        t = make_world(latency=ConstantLatency(0.5))

        def boom(msg):
            raise ValueError("bad")

        attach(t, "err", boom)
        outcomes = t.rpc_many("a", [RpcCall("err", "ping")])
        # the error reply travels back: clock advances by the full round trip
        assert outcomes[0].delay == pytest.approx(1.0)
        assert t.clock.now() == pytest.approx(1.0)

    def test_unattached_source_raises(self):
        t = make_world()
        with pytest.raises(UnreachableError):
            t.rpc_many("ghost", [RpcCall("b", "ping")])

    def test_all_legs_failing_advances_nothing(self):
        t = make_world()
        t.faults.set_down("b")
        t.faults.set_down("c")
        outcomes = t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping")])
        assert not any(o.ok for o in outcomes)
        assert t.clock.now() == 0.0


class TestHandlerTiming:
    @pytest.mark.parametrize("budget", (None, 10.0), ids=("no-deadline", "deadline"))
    def test_every_leg_handler_runs_at_batch_start(self, budget):
        # Concurrent legs: no leg's request delay (nor an earlier leg's
        # round trip) has elapsed when its handler runs.
        t = make_world(latency=PerDestLatency({"b": 0.1, "c": 0.4, "d": 0.2, "a": 0.1}))
        seen = {}
        for node in ("b", "c", "d"):
            attach(t, node, lambda m, node=node: seen.__setitem__(node, t.clock.now()))
        t.clock.advance(2.0)
        deadline = None if budget is None else t.clock.now() + budget
        t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping"), RpcCall("d", "ping")],
                   deadline)
        assert seen == {"b": 2.0, "c": 2.0, "d": 2.0}
        assert t.clock.now() == pytest.approx(2.5)


class TestDeterminism:
    def _run(self, seed):
        import random

        t = Transport(latency=UniformLatency(0.01, 0.2, rng=random.Random(seed)))
        for n in ("a", "b", "c", "d"):
            attach(t, n)
        t.rpc_many("a", [RpcCall("b", "ping"), RpcCall("c", "ping"), RpcCall("d", "ping")])
        t.rpc_many("a", [RpcCall("c", "ping"), RpcCall("d", "ping")])
        return t.clock.now(), t.stats.snapshot()

    def test_same_seed_same_stats(self):
        now1, snap1 = self._run(7)
        now2, snap2 = self._run(7)
        assert now1 == now2
        assert snap1 == snap2

    def test_different_seed_differs(self):
        _, snap1 = self._run(7)
        _, snap2 = self._run(8)
        assert snap1.latency != snap2.latency


class TestStampCalls:
    def test_stamped_legs_equal_dataclasses_replace(self):
        from dataclasses import replace

        stamper, reference = make_world(), make_world()
        payload = {"i": 1}
        calls = [
            RpcCall("b", "ping", payload),
            ("c", "read", {"k": "slot"}),
            RpcCall("b", "ping", {"i": 2}),
            RpcCall("d", "ping"),
        ]
        stamped = stamper.stamp_calls("a", calls)
        expected = [
            replace(
                c if isinstance(c, RpcCall) else RpcCall(*c),
                dedup=reference.next_dedup("a", c[0] if isinstance(c, tuple) else c.dst),
            )
            for c in calls
        ]
        assert stamped == expected
        assert [leg.dedup for leg in stamped] == [
            ("a", 1, 1), ("a", 1, 1), ("a", 1, 2), ("a", 1, 1),
        ]
        assert all(type(leg) is RpcCall for leg in stamped)
        assert stamped[0].payload is payload  # the payload is shared, not copied

    def test_already_stamped_leg_is_returned_as_is(self):
        t = make_world()
        leg = RpcCall("b", "ping", {"i": 1}, dedup=("a", 1, 99))
        fresh = RpcCall("c", "ping", {"i": 2})
        stamped = t.stamp_calls("a", [leg, fresh])
        assert stamped[0] is leg
        assert stamped[1].dedup == ("a", 1, 1)
        assert t.stamp_calls("a", stamped)[1] is stamped[1]

    def test_no_stamping_keeps_every_leg(self):
        t = make_world()
        t.stamp_dedup = False
        leg = RpcCall("b", "ping", {"i": 1})
        [out] = t.stamp_calls("a", [leg])
        assert out is leg and out.dedup is None
