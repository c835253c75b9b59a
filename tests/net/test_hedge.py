"""Tests for first-wins hedged round trips (Transport.rpc_hedged)."""

import random

import pytest

from repro.net.address import DeviceClass, NodeAddress
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.transport import Transport
from repro.util.errors import SlotUnavailableError, UnreachableError


class PerDestLatency(LatencyModel):
    """Fixed one-way delay per destination node."""

    def __init__(self, delays, default=0.01):
        self.delays = dict(delays)
        self.default = default

    def delay(self, src, dst, message):
        return self.delays.get(dst.node_id, self.default)


def attach(transport, node_id, handler=None):
    transport.register(
        NodeAddress(node_id, DeviceClass.WORKSTATION),
        handler or (lambda msg: {"from": node_id}),
    )


class TestNoHedgeWhenHealthy:
    def test_fast_primary_sends_no_second_leg(self):
        t = Transport(latency=ConstantLatency(0.01))
        for n in ("a", "p", "q"):
            attach(t, n)
        result = t.rpc_hedged("a", "p", "q", "read", {}, hedge_delay=0.25)
        assert result == {"from": "p"}
        assert t.stats.messages == 2  # request + reply, primary only
        assert t.stats.hedges == 0
        assert t.stats.hedge_wins == 0

    def test_primary_error_before_timer_raises_immediately(self):
        t = Transport(latency=ConstantLatency(0.01))
        attach(t, "a")
        attach(t, "q")

        def failing(msg):
            raise SlotUnavailableError("taken")

        attach(t, "p", handler=failing)
        with pytest.raises(SlotUnavailableError):
            t.rpc_hedged("a", "p", "q", "read", {}, hedge_delay=0.25)
        assert t.stats.hedges == 0

    def test_unreachable_primary_raises_without_hedging(self):
        t = Transport(latency=ConstantLatency(0.01))
        attach(t, "a")
        attach(t, "q")
        with pytest.raises(UnreachableError):
            t.rpc_hedged("a", "ghost", "q", "read", {}, hedge_delay=0.25)
        assert t.stats.hedges == 0


class TestHedgeFires:
    def test_backup_wins_against_slow_primary(self):
        t = Transport(latency=PerDestLatency({"p": 3.0, "q": 0.01, "a": 0.01}))
        for n in ("a", "p", "q"):
            attach(t, n)
        result = t.rpc_hedged("a", "p", "q", "read", {}, hedge_delay=0.25)
        assert result == {"from": "q"}
        assert t.stats.hedges == 1
        assert t.stats.hedge_wins == 1
        # Clock advanced to the backup's arrival, not the slow primary's.
        assert t.clock.now() == pytest.approx(0.25 + 0.01 + 0.01)
        # ... but all four legs' traffic was charged.
        assert t.stats.messages == 4

    def test_primary_wins_when_still_faster_than_backup(self):
        t = Transport(latency=PerDestLatency({"p": 0.2, "q": 5.0, "a": 0.2}))
        for n in ("a", "p", "q"):
            attach(t, n)
        # Primary total 0.4 > hedge_delay 0.25, so the hedge fires — but
        # the primary's reply still lands first.
        result = t.rpc_hedged("a", "p", "q", "read", {}, hedge_delay=0.25)
        assert result == {"from": "p"}
        assert t.stats.hedges == 1
        assert t.stats.hedge_wins == 0
        assert t.clock.now() == pytest.approx(0.4)

    def test_pareto_slow_primary_tail_is_cut(self):
        t = Transport(latency=ConstantLatency(0.01))
        for n in ("a", "p", "q"):
            attach(t, n)
        t.faults.slow_node("p", rng=random.Random(5), scale=2.0, shape=1.1)
        total = 0.0
        for _ in range(20):
            before = t.clock.now()
            result = t.rpc_hedged("a", "p", "q", "read", {}, hedge_delay=0.25)
            total += t.clock.now() - before
            assert result["from"] in ("p", "q")
        # Every hedged read completes within hedge_delay + backup RTT.
        assert total / 20 <= 0.25 + 0.02 + 1e-9
        assert t.stats.hedges > 0

    def test_both_legs_failed_raises_primary_error(self):
        t = Transport(latency=PerDestLatency({"p": 3.0}))
        for n in ("a", "p", "q"):
            attach(t, n)
        t.faults.set_down("q")
        t.faults.add_drop_rule(lambda m: m.is_reply and m.dst == "a")
        with pytest.raises(Exception) as exc_info:
            t.rpc_hedged("a", "p", "q", "read", {}, hedge_delay=0.25)
        # Primary's reply was lost; its loss error wins over the backup's.
        assert "p" in str(exc_info.value) or "drop" in str(exc_info.value).lower()

    def test_determinism_across_runs(self):
        def run():
            t = Transport(latency=ConstantLatency(0.01))
            for n in ("a", "p", "q"):
                attach(t, n)
            t.faults.slow_node("p", rng=random.Random(9), scale=1.0, shape=1.5)
            out = []
            for _ in range(10):
                out.append(t.rpc_hedged("a", "p", "q", "read", {}, 0.25)["from"])
            return (out, t.clock.now(), t.stats.messages, t.stats.hedges)

        assert run() == run()


class TestHandlerTiming:
    def test_primary_and_backup_handlers_run_at_call_start(self):
        t = Transport(latency=PerDestLatency({"p": 3.0, "q": 0.01, "a": 0.01}))
        seen = {}
        attach(t, "a")
        for node in ("p", "q"):
            attach(
                t,
                node,
                lambda m, node=node: seen.__setitem__(node, t.clock.now()) or {"from": node},
            )
        t.clock.advance(1.0)
        result = t.rpc_hedged("a", "p", "q", "read", {}, hedge_delay=0.25)
        assert result == {"from": "q"}
        assert seen == {"p": 1.0, "q": 1.0}
        assert t.clock.now() == pytest.approx(1.0 + 0.25 + 0.01 + 0.01)
