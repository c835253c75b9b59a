"""NetworkStats edge cases: batch counters, retry counters,
snapshot/delta arithmetic."""

import pytest

from repro.net.stats import NetworkStats


def _batch_latency(stats):
    """The ``net.batch_latency`` digest every batch is recorded in."""
    return stats.registry.digest(NetworkStats.NODE, "net.batch_latency")


class TestBatchCounters:
    def test_empty_batch_counts_once_with_zero_legs(self):
        stats = NetworkStats()
        stats.record_batch(0, 0.0)
        assert stats.concurrent_batches == 1
        assert stats.batched_legs == 0
        digest = _batch_latency(stats)
        assert (digest.count, digest.min, digest.max) == (1, 0.0, 0.0)

    def test_batches_accumulate_histogram(self):
        stats = NetworkStats()
        stats.record_batch(3, 0.0008)
        stats.record_batch(5, 0.003)
        stats.record_batch(2, 0.003)
        assert stats.batched_legs == 10
        digest = _batch_latency(stats)
        assert (digest.count, digest.min, digest.max) == (3, 0.0008, 0.003)


class TestRetryCounters:
    def test_record_retry_defaults_and_bulk(self):
        stats = NetworkStats()
        stats.record_retry()
        stats.record_retry(3)
        stats.record_retry_success()
        assert stats.retries == 4
        assert stats.retry_successes == 1

    def test_snapshot_and_delta_carry_retry_counters(self):
        stats = NetworkStats()
        stats.record_retry(2)
        before = stats.snapshot()
        stats.record_retry(5)
        stats.record_retry_success(4)
        delta = stats.snapshot().delta(before)
        assert before.retries == 2
        assert delta.retries == 5
        assert delta.retry_successes == 4

    def test_reset_zeroes_retry_counters(self):
        stats = NetworkStats()
        stats.record_retry(7)
        stats.record_retry_success(2)
        stats.reset()
        assert stats.retries == 0
        assert stats.retry_successes == 0
        assert stats.snapshot().retries == 0


class TestSnapshotDelta:
    def test_snapshot_is_immutable_copy(self):
        stats = NetworkStats()
        stats.record_delivery("invoke", 100, 0.002, is_reply=False)
        snap = stats.snapshot()
        stats.record_delivery("invoke", 50, 0.001, is_reply=True)
        assert snap.messages == 1
        assert snap.by_kind == {"invoke": 1}
        assert stats.messages == 2

    def test_delta_subtracts_every_counter(self):
        stats = NetworkStats()
        stats.record_delivery("invoke", 100, 0.002, is_reply=False)
        stats.record_dropped()
        before = stats.snapshot()
        stats.record_delivery("reply", 70, 0.004, is_reply=True)
        stats.record_unreachable()
        stats.record_batch(4, 0.002)
        delta = stats.snapshot().delta(before)
        assert delta.messages == 1
        assert delta.replies == 1
        assert delta.bytes == 70
        assert delta.latency == pytest.approx(0.004)
        assert delta.dropped == 0
        assert delta.unreachable == 1
        # Unchanged kinds survive with an explicit 0 (key-preserving delta)
        assert delta.by_kind == {"reply": 1, "invoke": 0}
        assert delta.concurrent_batches == 1
        assert delta.batched_legs == 4
        digest = _batch_latency(stats)
        assert (digest.count, digest.min, digest.max) == (1, 0.002, 0.002)

    def test_delta_preserves_zero_and_negative_keys(self):
        """Regression: plain Counter subtraction silently drops zero and
        negative entries, losing kinds from deltas."""
        stats = NetworkStats()
        stats.record_delivery("invoke", 10, 0.001, is_reply=False)
        stats.record_delivery("directory", 10, 0.001, is_reply=False)
        before = stats.snapshot()
        stats.record_delivery("invoke", 10, 0.001, is_reply=False)
        delta = stats.snapshot().delta(before)
        # "directory" did not move but must still appear, with count 0.
        assert delta.by_kind == {"invoke": 1, "directory": 0}
        assert "directory" in delta.by_kind
        # A reset between snapshots yields *negative* entries, not silence.
        stats.reset()
        gone = stats.snapshot().delta(before)
        assert gone.by_kind["invoke"] == -1
        assert gone.by_kind["directory"] == -1
