"""Edge cases of retry_call / rpc_many_with_retry (repro.net.retry)."""

import random

import pytest

from repro.net.address import DeviceClass, NodeAddress
from repro.net.latency import ConstantLatency
from repro.net.retry import RetryPolicy, retry_call, rpc_many_with_retry
from repro.net.stats import NetworkStats
from repro.net.transport import Transport
from repro.util.errors import MessageDropped, RemoteError


class TestRetryCall:
    def test_non_retryable_error_passes_through_untouched(self):
        stats = NetworkStats()
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            raise RemoteError("ValueError", "application bug")

        with pytest.raises(RemoteError):
            retry_call(RetryPolicy(max_attempts=4), stats, fn)
        # One attempt, no retry accounting: application errors are final.
        assert calls["n"] == 1
        assert stats.retries == 0
        assert stats.retry_successes == 0

    def test_exhaustion_reraises_the_last_error(self):
        stats = NetworkStats()
        errors = [MessageDropped("first"), MessageDropped("second"), MessageDropped("last")]

        def fn():
            raise errors.pop(0)

        with pytest.raises(MessageDropped, match="last"):
            retry_call(RetryPolicy(max_attempts=3), stats, fn)
        assert stats.retries == 2  # two re-attempts, then give up

    def test_success_after_retries_records_one_recovery(self):
        stats = NetworkStats()
        attempts = {"n": 0}

        def fn():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise MessageDropped("flaky")
            return "ok"

        assert retry_call(RetryPolicy(max_attempts=4), stats, fn) == "ok"
        assert stats.retries == 2
        assert stats.retry_successes == 1


class TestBackoffJitter:
    def test_fixed_seed_gives_identical_backoff_sequences(self):
        a = RetryPolicy(rng=random.Random(42))
        b = RetryPolicy(rng=random.Random(42))
        assert [a.backoff(i) for i in range(1, 6)] == [b.backoff(i) for i in range(1, 6)]

    def test_jitter_stays_within_the_configured_band(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.5, rng=random.Random(7))
        for attempt in range(1, 50):
            assert 0.5 <= policy.backoff(attempt) <= 1.5

    def test_no_rng_means_deterministic_exponential_cap(self):
        policy = RetryPolicy(base_delay=0.2, max_delay=2.0, jitter=0.5)  # rng=None
        assert [policy.backoff(i) for i in (1, 2, 3, 4, 5, 6)] == [
            0.2, 0.4, 0.8, 1.6, 2.0, 2.0
        ]


class TestRpcManyWithRetry:
    def _transport(self):
        t = Transport(latency=ConstantLatency(0.001))
        for node in ("src", "d1", "d2"):
            t.register(NodeAddress(node, DeviceClass.WORKSTATION), lambda m: {"ok": True})
        return t

    def test_only_retryable_legs_are_resent(self):
        t = self._transport()
        invoked = []

        def flaky(msg):
            invoked.append(msg.msg_id)
            raise ValueError("application failure")  # -> RemoteError, final

        t.register(NodeAddress("d2", DeviceClass.WORKSTATION), flaky)
        outcomes = rpc_many_with_retry(
            t, "src", [("d1", "invoke", {}), ("d2", "invoke", {})],
            RetryPolicy(max_attempts=4),
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok and isinstance(outcomes[1].error, RemoteError)
        assert len(invoked) == 1  # RemoteError is not worth re-sending
        assert t.stats.retries == 0

    def test_exhausted_leg_keeps_its_last_error(self):
        t = self._transport()
        t.faults.add_drop_rule(lambda m: m.dst == "d2" and not m.is_reply)
        outcomes = rpc_many_with_retry(
            t, "src", [("d1", "invoke", {}), ("d2", "invoke", {})],
            RetryPolicy(max_attempts=3),
        )
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, MessageDropped)
        assert t.stats.retries == 2

    def test_resent_legs_reuse_their_idempotency_key(self):
        t = self._transport()
        seen: list[tuple] = []
        drop_first = {"left": 1}
        t.faults.add_drop_rule(
            lambda m: m.src == "d1"
            and m.is_reply
            and drop_first.pop("left", None) is not None
        )
        t.register(
            NodeAddress("d1", DeviceClass.WORKSTATION),
            lambda m: seen.append(m.dedup) or {"ok": True},
        )
        outcomes = rpc_many_with_retry(
            t, "src", [("d1", "invoke", {})], RetryPolicy(max_attempts=4)
        )
        assert outcomes[0].ok
        # Handler ran twice (reply lost once) but both deliveries carried
        # the same key — the receiver's dedup layer can collapse them.
        assert len(seen) == 2
        assert seen[0] == seen[1] is not None
