"""NetworkStats edge cases: batch counters, retry counters, undeclared
names, snapshot/delta arithmetic."""

import pytest

from repro.net.address import DeviceClass, NodeAddress
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.stats import NetworkStats
from repro.net.transport import Transport


def _batch_latency(stats):
    """The ``net.batch_latency`` digest every batch is recorded in."""
    return stats.registry.digest(NetworkStats.NODE, "net.batch_latency")


def _leg(stats, kind, size, delay, is_reply):
    """Count one delivered leg through the transport's leg accumulator."""
    msg = Message(("msg", 1), "a", "b", kind, is_reply=is_reply)
    msg.size_bytes = size
    Transport(stats=stats)._count_leg(msg, delay)


def _transport(*nodes):
    transport = Transport()
    for node in nodes:
        transport.register(
            NodeAddress(node, DeviceClass.WORKSTATION), lambda msg: {"ok": True}
        )
    return transport


class TestBatchCounters:
    def test_empty_batch_counts_once_with_zero_legs(self):
        stats = NetworkStats()
        stats.add("concurrent_batches")
        stats.add("batched_legs", 0)
        assert stats.concurrent_batches == 1
        assert stats.batched_legs == 0
        # A zero add still writes its counter: the registry shows it at 0.
        assert stats.registry.snapshot()["counters"] == {
            "net/net.batched_legs": 0,
            "net/net.concurrent_batches": 1,
        }

    def test_undelivered_batch_counts_once_with_zero_delay(self):
        transport = _transport("a")
        outcomes = transport.rpc_many("a", [("ghost", "ping", {})])
        assert not outcomes[0].ok
        stats = transport.stats
        assert (stats.concurrent_batches, stats.batched_legs) == (1, 1)
        digest = _batch_latency(stats)
        assert (digest.count, digest.min, digest.max) == (1, 0.0, 0.0)

    def test_batches_accumulate_histogram(self):
        transport = _transport("a", "b", "c", "d", "e", "f")
        # Each leg's round trip is two one-way delays.
        for legs, one_way in ((3, 0.0004), (5, 0.0015), (2, 0.0015)):
            transport.latency = ConstantLatency(one_way)
            calls = [(dst, "ping", {}) for dst in "bcdef"[:legs]]
            assert all(o.ok for o in transport.rpc_many("a", calls))
        stats = transport.stats
        assert stats.concurrent_batches == 3
        assert stats.batched_legs == 10
        digest = _batch_latency(stats)
        assert (digest.count, digest.min, digest.max) == (3, 0.0008, 0.003)


class TestRetryCounters:
    def test_add_defaults_to_one_and_takes_bulk(self):
        stats = NetworkStats()
        stats.add("retries")
        stats.add("retries", 3)
        stats.add("retry_successes")
        assert stats.retries == 4
        assert stats.retry_successes == 1

    def test_snapshot_and_delta_carry_retry_counters(self):
        stats = NetworkStats()
        stats.add("retries", 2)
        before = stats.snapshot()
        stats.add("retries", 5)
        stats.add("retry_successes", 4)
        delta = stats.snapshot().delta(before)
        assert before.retries == 2
        assert delta.retries == 5
        assert delta.retry_successes == 4


class TestDeclaredCounters:
    def test_undeclared_name_fails_and_creates_nothing(self):
        stats = NetworkStats()
        with pytest.raises(KeyError):
            stats.add("retry")
        with pytest.raises(KeyError):
            stats.add("by_kind")
        with pytest.raises(AttributeError):
            stats.retry  # noqa: B018 - the read itself must fail
        assert stats.registry.snapshot()["counters"] == {}

    def test_reads_keep_the_declared_types(self):
        stats = NetworkStats()
        snap = stats.snapshot()
        assert type(snap.latency) is float and type(snap.messages) is int
        stats.add("latency", 0.5)
        stats.add("bytes", 7)
        assert (stats.latency, stats.bytes) == (0.5, 7)
        assert type(stats.bytes) is int


class TestSnapshotDelta:
    def test_snapshot_is_immutable_copy(self):
        stats = NetworkStats()
        _leg(stats, "invoke", 100, 0.002, is_reply=False)
        snap = stats.snapshot()
        _leg(stats, "invoke", 50, 0.001, is_reply=True)
        assert snap.messages == 1
        assert snap.by_kind == {"invoke": 1}
        assert stats.messages == 2

    def test_delta_subtracts_every_counter(self):
        stats = NetworkStats()
        _leg(stats, "invoke", 100, 0.002, is_reply=False)
        stats.add("dropped")
        before = stats.snapshot()
        _leg(stats, "reply", 70, 0.004, is_reply=True)
        stats.add("unreachable")
        stats.add("concurrent_batches")
        stats.add("batched_legs", 4)
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

    def test_delta_preserves_zero_and_negative_keys(self):
        """Regression: plain Counter subtraction silently drops zero and
        negative entries, losing kinds from deltas."""
        stats = NetworkStats()
        _leg(stats, "invoke", 10, 0.001, is_reply=False)
        _leg(stats, "directory", 10, 0.001, is_reply=False)
        before = stats.snapshot()
        _leg(stats, "invoke", 10, 0.001, is_reply=False)
        delta = stats.snapshot().delta(before)
        # "directory" did not move but must still appear, with count 0.
        assert delta.by_kind == {"invoke": 1, "directory": 0}
        assert "directory" in delta.by_kind
        # A delta taken the wrong way round yields *negative* entries, not
        # silence, for kinds on both sides and for kinds only the later has.
        _leg(stats, "reply", 10, 0.001, is_reply=True)
        gone = before.delta(stats.snapshot())
        assert gone.by_kind["invoke"] == -1
        assert gone.by_kind["reply"] == -1
        assert gone.by_kind["directory"] == 0
        assert gone.messages == -2
