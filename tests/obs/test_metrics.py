"""MetricsRegistry semantics and its integration into the world."""

from collections import Counter

import pytest

from repro.device.resource import ResourceObject
from repro.net.message import Message
from repro.net.stats import NetworkStats
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.util.clock import VirtualClock
from repro.world import SyDWorld


class TestRegistry:
    def test_counters_accumulate_per_node(self):
        reg = MetricsRegistry()
        reg.inc("a", "kernel.invokes")
        reg.inc("a", "kernel.invokes", 2)
        reg.inc("b", "kernel.invokes")
        assert reg.counter("a", "kernel.invokes") == 3
        assert reg.counter("b", "kernel.invokes") == 1
        assert reg.counter("c", "kernel.invokes") == 0

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        assert reg.gauge("a", "txn.locks_held") is None
        reg.set_gauge("a", "txn.locks_held", 3)
        reg.set_gauge("a", "txn.locks_held", 1)
        assert reg.gauge("a", "txn.locks_held") == 1

    def test_snapshot_is_sorted_and_jsonable(self):
        import json

        reg = MetricsRegistry()
        reg.inc("b", "x")
        reg.inc("a", "x")
        reg.set_gauge("a", "g", 1.5)
        reg.record_value("a", "h", 0.004)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a/x", "b/x"]
        json.dumps(snap)  # no Counter leaks through
        rendered = reg.render()
        assert "counter a/x = 1" in rendered
        assert "gauge   a/g = 1.5" in rendered
        assert "digest  a/h count=1" in rendered

    def test_digests_keep_exact_min_max(self):
        # Regression: power-of-two buckets could not tell 1.1 s from
        # 2.0 s (both "<=2048ms"). Digests report the exact extremes,
        # and render() prints them.
        reg = MetricsRegistry()
        for delay in (1.1, 1.7, 2.0):
            reg.record_value("a", "net.rpc", delay)
        digest = reg.digest("a", "net.rpc")
        assert digest.count == 3
        assert digest.sum == pytest.approx(4.8)
        assert (digest.min, digest.max) == (1.1, 2.0)
        # An unset digest reads as empty, not KeyError.
        assert reg.digest("a", "nope").count == 0
        line = next(
            text for text in reg.render().splitlines() if text.startswith("digest  a/net.rpc")
        )
        assert "count=3" in line and "min=1.100000" in line and "max=2.000000" in line

    def test_record_value_windows_by_virtual_time(self):
        clock = VirtualClock()
        reg = MetricsRegistry(clock)
        reg.record_value("a", "op.cal.schedule", 0.5)
        clock.advance(reg.digest_window + 1.0)
        reg.record_value("a", "op.cal.schedule", 3.0)
        windows = reg.digest_windows("a", "op.cal.schedule")
        assert len(windows) == 2
        merged = reg.merged_digest("op.cal.schedule")
        assert merged.count == 2
        assert merged.min == 0.5 and merged.max == 3.0

    def test_merged_digest_spans_nodes(self):
        reg = MetricsRegistry()
        reg.record_value("a", "op.cal.cancel", 0.2)
        reg.record_value("b", "op.cal.cancel", 4.0)
        merged = reg.merged_digest("op.cal.cancel")
        assert merged.count == 2 and merged.max == 4.0
        assert "op.cal.cancel" in reg.digest_names()


class TestNetworkStatsView:
    def test_stats_land_in_the_shared_registry(self):
        reg = MetricsRegistry()
        stats = NetworkStats(reg)
        transport = Transport(stats=stats)
        for kind, size, delay, is_reply in (
            ("invoke", 100, 0.02, False),
            ("reply", 40, 0.01, True),
        ):
            msg = Message(("msg", 1), "a", "b", kind, is_reply=is_reply)
            msg.size_bytes = size
            transport._count_leg(msg, delay)
        assert stats.messages == 2 and stats.replies == 1
        assert stats.bytes == 140
        assert reg.counter("net", "net.messages") == 2
        assert reg.counter("net", "net.by_kind.invoke") == 1
        assert stats.by_kind == Counter({"invoke": 1, "reply": 1})

    def test_standalone_stats_own_a_private_registry(self):
        stats = NetworkStats()
        stats.add("retries")
        assert stats.retries == 1
        assert stats.registry.counter("net", "net.retries") == 1


class TestWorldIntegration:
    def _world(self):
        world = SyDWorld(seed=3, directory_cache=True)
        for user in ("a", "b"):
            node = world.add_node(user)
            obj = ResourceObject(f"{user}_res", node.store, node.locks)
            node.listener.publish_object(obj, user_id=user, service="res")
            obj.add("slot1")
        return world

    def test_traffic_kernel_and_cache_metrics_share_one_registry(self):
        world = self._world()
        node = world.node("a")
        node.engine.execute("b", "res", "read", "slot1")
        node.engine.execute("b", "res", "read", "slot1")
        reg = world.metrics
        # Network counters under the pseudo-node mirror world.stats.
        assert reg.counter("net", "net.messages") == world.stats.messages > 0
        # The remote listener timed its dispatches (keyed by node id —
        # the listener doesn't know user names).
        b_id = world.node("b").node_id
        assert reg.digest(b_id, "kernel.dispatch.read").count == 2
        # The second lookup hit the directory cache.
        assert reg.counter("a", "dir.cache_hits") >= 1
        snap = reg.snapshot()
        assert any(k.startswith("net/") for k in snap["counters"])
        assert any(k.startswith(f"{b_id}/") for k in snap["counters"])
