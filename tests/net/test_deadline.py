"""Tests for deadline budgets on the transport and retry paths."""

import pytest

from repro.net.address import DeviceClass, NodeAddress
from repro.net.latency import ConstantLatency
from repro.net.retry import RetryPolicy, retry_call, rpc_many_with_retry
from repro.net.transport import RpcCall, Transport
from repro.util.errors import DeadlineExceeded


def make_transport(latency=0.5):
    return Transport(latency=ConstantLatency(latency))


def attach(transport, node_id, handler=None):
    handler = handler or (lambda msg: {"echo": msg.payload})
    transport.register(NodeAddress(node_id, DeviceClass.WORKSTATION), handler)


class TestDeadlineExceededError:
    def test_message_carries_spent_and_total(self):
        err = DeadlineExceeded(1.234, 5.0, detail="phase x")
        assert "1.234" in str(err)
        assert "5.000" in str(err)
        assert "phase x" in str(err)

    def test_reconstruction_from_args_round_trips(self):
        err = DeadlineExceeded(1.2, 3.4, detail="leg")
        rebuilt = type(err)(*err.args)
        assert str(rebuilt) == str(err)

    def test_not_retryable(self):
        assert not RetryPolicy().retryable(DeadlineExceeded(0.1, 0.2))


class TestRpcDeadline:
    def test_completes_inside_budget(self):
        t = make_transport(latency=0.1)
        attach(t, "a")
        attach(t, "b")
        result = t.rpc("a", "b", "ping", {"x": 1}, deadline=t.clock.now() + 5.0)
        assert result == {"echo": {"x": 1}}

    def test_expired_budget_never_sends(self):
        t = make_transport()
        attach(t, "a")
        attach(t, "b")
        t.clock.advance(2.0)
        before = t.stats.messages
        with pytest.raises(DeadlineExceeded, match="not sent"):
            t.rpc("a", "b", "ping", {}, deadline=1.0)
        assert t.stats.messages == before

    def test_request_leg_overrun_skips_handler(self):
        t = make_transport(latency=0.5)
        ran = []
        attach(t, "a")
        attach(t, "b", handler=lambda m: ran.append(m) or {})
        with pytest.raises(DeadlineExceeded, match="request leg"):
            t.rpc("a", "b", "ping", {}, deadline=t.clock.now() + 0.3)
        assert ran == []
        # The caller stopped waiting at the deadline, not at the real delay.
        assert t.clock.now() == pytest.approx(0.3)

    def test_reply_leg_overrun_lands_side_effects(self):
        t = make_transport(latency=0.5)
        ran = []
        attach(t, "a")
        attach(t, "b", handler=lambda m: ran.append(m) or {})
        with pytest.raises(DeadlineExceeded, match="reply leg"):
            t.rpc("a", "b", "ping", {}, deadline=t.clock.now() + 0.7)
        assert len(ran) == 1
        assert t.clock.now() == pytest.approx(0.7)

    def test_clock_never_passes_deadline_under_stall(self):
        t = make_transport(latency=0.1)
        attach(t, "a")
        attach(t, "b")
        t.faults.stall_node("b", delay=45.0)
        with pytest.raises(DeadlineExceeded):
            t.rpc("a", "b", "ping", {}, deadline=t.clock.now() + 2.0)
        assert t.clock.now() == pytest.approx(2.0)

    def test_deadline_header_costs_eight_bytes(self):
        t = make_transport(latency=0.1)
        attach(t, "a")
        attach(t, "b")
        t.rpc("a", "b", "ping", {})
        plain = t.stats.bytes
        t.rpc("a", "b", "ping", {}, deadline=t.clock.now() + 50.0)
        assert t.stats.bytes - plain > 0


class TestRpcHandlerTiming:
    """A sequential rpc's handler runs once the request has landed."""

    @pytest.mark.parametrize("budget", (None, 5.0), ids=("no-deadline", "deadline"))
    def test_handler_sees_start_plus_request_delay(self, budget):
        t = make_transport(latency=0.25)
        seen = []
        attach(t, "a")
        attach(t, "b", handler=lambda m: seen.append(t.clock.now()) or {})
        t.clock.advance(1.0)
        deadline = None if budget is None else t.clock.now() + budget
        t.rpc("a", "b", "ping", {}, deadline=deadline)
        assert seen == [1.25]
        assert t.clock.now() == 1.5


class TestRpcManyDeadline:
    def test_legs_past_deadline_fail_typed(self):
        t = make_transport(latency=0.5)
        attach(t, "a")
        attach(t, "b")
        attach(t, "c")
        outcomes = t.rpc_many(
            "a",
            [RpcCall("b", "ping", {}), RpcCall("c", "ping", {})],
            t.clock.now() + 0.3,
        )
        assert all(not o.ok for o in outcomes)
        assert all(isinstance(o.error, DeadlineExceeded) for o in outcomes)
        assert t.clock.now() <= 0.3 + 1e-9

    def test_inside_budget_unchanged(self):
        t = make_transport(latency=0.1)
        attach(t, "a")
        attach(t, "b")
        attach(t, "c")
        outcomes = t.rpc_many(
            "a",
            [RpcCall("b", "ping", {}), RpcCall("c", "ping", {})],
            t.clock.now() + 10.0,
        )
        assert all(o.ok for o in outcomes)


class TestRetryBudget:
    def test_retry_call_gives_up_when_budget_cannot_cover_backoff(self):
        t = make_transport(latency=0.1)
        attach(t, "a")
        attach(t, "b")
        t.faults.add_drop_rule(lambda m: m.kind == "ping")
        policy = RetryPolicy(
            max_attempts=50, base_delay=2.0, max_delay=2.0, jitter=0.0,
            sleep=lambda d: t.clock.advance(d),
        )
        deadline = t.clock.now() + 5.0
        with pytest.raises(DeadlineExceeded, match="retry budget"):
            retry_call(
                policy,
                t.stats,
                lambda: t.rpc("a", "b", "ping", {}, deadline=deadline),
                node="b",
                deadline=deadline,
                clock=t.clock,
            )
        assert t.clock.now() < 5.0

    def test_rpc_many_with_retry_stops_waves_at_budget(self):
        t = make_transport(latency=0.1)
        attach(t, "a")
        attach(t, "b")
        t.faults.add_drop_rule(lambda m: m.kind == "ping")
        policy = RetryPolicy(
            max_attempts=50, base_delay=2.0, max_delay=2.0, jitter=0.0,
            sleep=lambda d: t.clock.advance(d),
        )
        deadline = t.clock.now() + 5.0
        outcomes = rpc_many_with_retry(
            t, "a", [RpcCall("b", "ping", {})], policy, deadline=deadline
        )
        assert not outcomes[0].ok
        assert t.clock.now() < 5.0
