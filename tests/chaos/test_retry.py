"""RetryPolicy unit behaviour and its wiring into the engine."""

import random

import pytest

from repro.net.retry import RetryPolicy, retry_call, rpc_many_with_retry
from repro.net.stats import NetworkStats
from repro.net.transport import RpcOutcome
from repro.util.errors import MessageDropped, UnreachableError
from repro.world import SyDWorld


class TestBackoff:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.2, max_delay=1.0, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.8)
        assert policy.backoff(4) == pytest.approx(1.0)  # capped
        assert policy.backoff(9) == pytest.approx(1.0)

    def test_jitter_stays_in_band_and_is_seeded(self):
        a = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.5,
                        rng=random.Random(42))
        b = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.5,
                        rng=random.Random(42))
        draws = [a.backoff(1) for _ in range(50)]
        assert all(0.5 <= d <= 1.5 for d in draws)
        assert draws == [b.backoff(1) for _ in range(50)]
        assert len(set(draws)) > 1

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(MessageDropped("x"))
        assert policy.retryable(UnreachableError("x"))
        assert not policy.retryable(ValueError("x"))


class TestRetryCall:
    def _flaky(self, failures, error=MessageDropped):
        state = {"left": failures, "calls": 0}

        def fn():
            state["calls"] += 1
            if state["left"] > 0:
                state["left"] -= 1
                raise error("flaky")
            return "ok"

        return fn, state

    def test_recovers_and_counts(self):
        stats = NetworkStats()
        slept = []
        policy = RetryPolicy(max_attempts=4, jitter=0.0, sleep=slept.append)
        fn, state = self._flaky(2)
        assert retry_call(policy, stats, fn) == "ok"
        assert state["calls"] == 3
        assert stats.retries == 2
        assert stats.retry_successes == 1
        assert slept == [pytest.approx(0.2), pytest.approx(0.4)]

    def test_exhausts_attempts(self):
        stats = NetworkStats()
        policy = RetryPolicy(max_attempts=3, sleep=lambda d: None)
        fn, state = self._flaky(99)
        with pytest.raises(MessageDropped):
            retry_call(policy, stats, fn)
        assert state["calls"] == 3
        assert stats.retries == 2
        assert stats.retry_successes == 0

    def test_none_policy_is_plain_call(self):
        fn, state = self._flaky(1)
        with pytest.raises(MessageDropped):
            retry_call(None, NetworkStats(), fn)
        assert state["calls"] == 1

    def test_non_transient_errors_pass_through(self):
        policy = RetryPolicy(sleep=lambda d: None)

        def fn():
            raise KeyError("app error")

        with pytest.raises(KeyError):
            retry_call(policy, NetworkStats(), fn)

    def test_first_try_success_records_nothing(self):
        stats = NetworkStats()
        assert retry_call(RetryPolicy(), stats, lambda: 5) == 5
        assert stats.retries == 0
        assert stats.retry_successes == 0


class _ScriptedTransport:
    """rpc_many stub: each leg (a string) fails ``plan[leg]`` times."""

    tracer = None

    def __init__(self, plan):
        self.stats = NetworkStats()
        self.plan = dict(plan)
        self.batches = []

    def stamp_calls(self, src, legs):
        return legs

    def rpc_many(self, src, legs, deadline=None):
        self.batches.append(list(legs))
        outcomes = []
        for leg in legs:
            if self.plan.get(leg, 0) > 0:
                self.plan[leg] -= 1
                outcomes.append(
                    RpcOutcome(dst=leg, ok=False, error=MessageDropped(leg))
                )
            else:
                outcomes.append(RpcOutcome(dst=leg, ok=True, value={"leg": leg}))
        return outcomes


class TestRpcManyWithRetry:
    def test_only_failed_legs_are_resent(self):
        transport = _ScriptedTransport({"b": 1, "c": 2})
        policy = RetryPolicy(max_attempts=4, jitter=0.0, sleep=lambda d: None)
        outcomes = rpc_many_with_retry(transport, "src", ["a", "b", "c"], policy)
        assert [o.ok for o in outcomes] == [True, True, True]
        assert [o.dst for o in outcomes] == ["a", "b", "c"]
        assert transport.batches == [["a", "b", "c"], ["b", "c"], ["c"]]
        assert transport.stats.retries == 3  # 2 legs + 1 leg re-sent
        assert transport.stats.retry_successes == 2

    def test_exhaustion_leaves_failed_outcome(self):
        transport = _ScriptedTransport({"a": 99})
        policy = RetryPolicy(max_attempts=3, jitter=0.0, sleep=lambda d: None)
        outcomes = rpc_many_with_retry(transport, "src", ["a"], policy)
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, MessageDropped)
        assert len(transport.batches) == 3

    def test_none_policy_single_batch(self):
        transport = _ScriptedTransport({"a": 1})
        outcomes = rpc_many_with_retry(transport, "src", ["a"], None)
        assert not outcomes[0].ok
        assert len(transport.batches) == 1


class TestPerLegMessageCounts:
    """Regression: retry waves resend exactly the failed legs, re-using
    their pre-stamped idempotency keys — never the survivors."""

    def _transport(self):
        from repro.net.address import DeviceClass, NodeAddress
        from repro.net.latency import ConstantLatency
        from repro.net.transport import Transport

        t = Transport(latency=ConstantLatency(0.01))
        for n in ("src", "b", "c", "d"):
            t.register(
                NodeAddress(n, DeviceClass.WORKSTATION), lambda msg: {"ok": True}
            )
        return t

    def test_retry_wave_resends_only_failed_legs_with_same_keys(self):
        t = self._transport()
        seen = []
        t.taps.append(
            lambda m: seen.append((m.dst, m.dedup))
            if not m.is_reply and m.kind == "invoke"
            else None
        )
        # Lose b's first *reply*: the handler ran, the acknowledgement
        # vanished — the classic duplicate-producing gray fault.
        flaky = {"left": 1}
        t.faults.add_drop_rule(
            lambda m: m.is_reply
            and m.src == "b"
            and flaky.pop("left", None) is not None
        )
        policy = RetryPolicy(max_attempts=4, jitter=0.0, sleep=lambda d: None)
        from repro.net.transport import RpcCall

        outcomes = rpc_many_with_retry(
            t,
            "src",
            [RpcCall(n, "invoke", {"object": "x", "method": "m", "args": []})
             for n in ("b", "c", "d")],
            policy,
        )
        assert [o.ok for o in outcomes] == [True, True, True]
        sends = {}
        for dst, dedup in seen:
            sends.setdefault(dst, []).append(dedup)
        # Survivors went out exactly once; the flaky leg twice — with
        # one and the same idempotency key across both attempts (that
        # reuse is what lets the receiver's dedup table replay instead
        # of re-executing).
        assert len(sends["c"]) == 1 and len(sends["d"]) == 1
        assert len(sends["b"]) == 2
        assert sends["b"][0] == sends["b"][1]
        assert sends["b"][0] is not None
        # Exact delivered-message count: wave 1 = 3 requests + 2 replies
        # (b's was lost), wave 2 = 1 request + 1 reply. Nothing else.
        assert t.stats.messages == 7
        assert t.stats.reply_lost == 1


class TestEngineWiring:
    def _world_pair(self):
        from repro.device.resource import ResourceObject

        world = SyDWorld(seed=11)
        for user in ("a", "b"):
            node = world.add_node(user)
            obj = ResourceObject(f"{user}_res", node.store, node.locks)
            node.listener.publish_object(obj, user_id=user, service="res")
            obj.add("slot1")
        return world

    def _drop_next_invoke(self, world):
        dropped = {"left": 1}
        world.transport.faults.add_drop_rule(
            lambda msg: msg.kind == "invoke"
            and dropped.pop("left", None) is not None
        )

    def test_engine_retries_through_a_transient_drop(self):
        world = self._world_pair()
        world.set_retry_policy(RetryPolicy(max_attempts=4))
        self._drop_next_invoke(world)
        row = world.node("a").engine.execute("b", "res", "read", "slot1")
        assert row["status"] == "free"
        assert world.stats.retries >= 1
        assert world.stats.retry_successes >= 1

    def test_without_policy_the_drop_surfaces(self):
        world = self._world_pair()
        self._drop_next_invoke(world)
        with pytest.raises(MessageDropped):
            world.node("a").engine.execute("b", "res", "read", "slot1")
