"""Tests for the phi-accrual health monitor (gray-failure detection)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.health import HealthMonitor
from repro.util.clock import VirtualClock


def fed_monitor(clock, node="b", beats=8, interval=2.0, **kwargs):
    """A monitor that has watched ``node`` heartbeat regularly."""
    monitor = HealthMonitor(clock, **kwargs)
    for _ in range(beats):
        monitor.record_heartbeat(node, True)
        clock.advance(interval)
    return monitor


class TestSuspicion:
    def test_unknown_node_has_zero_suspicion(self):
        monitor = HealthMonitor(VirtualClock())
        assert monitor.suspicion("ghost") == 0.0

    def test_regular_heartbeats_keep_phi_low(self):
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        assert monitor.suspicion("b") < 1.0

    def test_phi_grows_as_arrivals_stop(self):
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        quiet = monitor.suspicion("b")
        clock.advance(1.0)
        late = monitor.suspicion("b")
        clock.advance(1.0)
        very_late = monitor.suspicion("b")
        assert quiet < late < very_late
        clock.advance(60.0)
        # ... and saturates finite (the p floor caps phi at 12).
        assert monitor.suspicion("b") == pytest.approx(12.0)

    def test_failure_streak_raises_phi_between_heartbeats(self):
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        base = monitor.suspicion("b")
        for _ in range(3):
            monitor.record_failure("b")
        assert monitor.suspicion("b") == pytest.approx(
            base + 3 * monitor.fail_weight
        )

    def test_success_clears_failure_streak(self):
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        for _ in range(5):
            monitor.record_failure("b")
        clock.advance(0.5)
        monitor.record_success("b", 0.01)
        assert monitor.suspicion("b") < monitor.fail_weight

    def test_rtt_degradation_is_gray_evidence(self):
        """A node that still answers — ever more slowly — grows suspect
        even though every probe and every RPC 'succeeds'."""
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        for _ in range(6):
            monitor.record_success("b", 0.01)
            clock.advance(2.0)
        healthy = monitor.suspicion("b")
        for _ in range(12):
            monitor.record_success("b", 2.5)
            clock.advance(2.0)
        assert monitor.suspicion("b") > healthy

    def test_forget_drops_history(self):
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        clock.advance(60.0)
        assert monitor.suspicion("b") > 1.0
        monitor.forget("b")
        assert monitor.suspicion("b") == 0.0


class TestRankingAndQuarantine:
    def test_rank_orders_healthiest_first(self):
        clock = VirtualClock()
        monitor = HealthMonitor(clock)
        for _ in range(8):
            monitor.record_heartbeat("a", True)
            monitor.record_heartbeat("b", True)
            clock.advance(2.0)
        for _ in range(4):
            monitor.record_failure("a")
        assert monitor.rank(["a", "b"]) == ["b", "a"]

    def test_rank_is_stable_on_ties(self):
        monitor = HealthMonitor(VirtualClock())
        assert monitor.rank(["z", "a", "m"]) == ["z", "a", "m"]

    def test_quarantine_needs_the_hard_bar(self):
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        assert not monitor.is_quarantined("b")
        for _ in range(30):
            monitor.record_failure("b")
        assert monitor.is_quarantined("b")

    def test_verdicts_are_recorded_with_ground_truth(self):
        clock = VirtualClock()
        monitor = HealthMonitor(clock)
        clock.advance(7.5)
        monitor.record_verdict("b", actually_healthy=True)
        monitor.record_verdict("c", actually_healthy=False)
        assert [(v[1], v[3]) for v in monitor.verdicts] == [
            ("b", True),
            ("c", False),
        ]
        assert monitor.verdicts[0][0] == pytest.approx(7.5)


class TestHedgeDelay:
    def test_clean_node_keeps_full_delay(self):
        monitor = HealthMonitor(VirtualClock())
        assert monitor.hedge_delay("b", 0.25) == pytest.approx(0.25)

    def test_suspect_node_is_hedged_sooner(self):
        clock = VirtualClock()
        monitor = fed_monitor(clock)
        full = monitor.hedge_delay("b", 0.25)
        for _ in range(6):
            monitor.record_failure("b")
        assert monitor.hedge_delay("b", 0.25) < full / 2


class TestSweep:
    def test_sweep_records_arrivals_and_publishes_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        clock = VirtualClock()
        metrics = MetricsRegistry()
        monitor = HealthMonitor(clock, metrics=metrics)
        for _ in range(5):
            monitor.sweep([("a", True), ("b", False)])
            clock.advance(2.0)
        assert monitor.suspicion("b") > monitor.suspicion("a")
        assert metrics.gauge("b", "health.phi") == pytest.approx(
            monitor.suspicion("b"), abs=1e-3
        )

    def test_determinism(self):
        def run():
            clock = VirtualClock()
            monitor = fed_monitor(clock, beats=12)
            monitor.record_failure("b")
            clock.advance(11.0)
            return monitor.snapshot()

        assert run() == run()


def eager_phi(monitor, state, now):
    """phi with the interval variance computed up front on every call."""
    phi = 0.0
    if state.last_seen is not None and len(state.intervals) >= 3:
        elapsed = now - state.last_seen
        mean = math.fsum(state.intervals) / len(state.intervals)
        var = math.fsum((x - mean) ** 2 for x in state.intervals) / len(state.intervals)
        std = max(math.sqrt(var), monitor.min_std)
        if elapsed > mean:
            p_later = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
            phi += -math.log10(max(p_later, 1e-12))
    phi += monitor.fail_weight * state.fail_streak
    if (
        state.rtt_ewma is not None
        and state.rtt_best is not None
        and state.rtt_best > 0.0
    ):
        ratio = state.rtt_ewma / state.rtt_best
        if ratio > monitor.rtt_ratio_floor:
            phi += min(4.0, math.log2(ratio / monitor.rtt_ratio_floor + 1.0))
    return phi


class TestLazyVariance:
    @given(
        intervals=st.one_of(
            st.lists(st.floats(min_value=1e-3, max_value=50.0), max_size=25),
            # a near-regular rhythm, whose spread is under min_std
            st.tuples(
                st.floats(min_value=0.5, max_value=5.0),
                st.lists(st.floats(min_value=0.0, max_value=0.3), max_size=25),
            ).map(lambda beat: [beat[0] + jitter for jitter in beat[1]]),
        ),
        seen=st.booleans(),
        lateness=st.one_of(
            st.just(0.0),  # the heartbeat sweep: right after an arrival
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),  # below the mean
            st.just(1.0),  # at the mean
            st.floats(min_value=1.0, max_value=40.0, exclude_min=True),  # above it
        ),
        fail_streak=st.integers(min_value=0, max_value=6),
        rtt_best=st.one_of(st.none(), st.just(0.0), st.floats(min_value=1e-3, max_value=2.0)),
        rtt_ratio=st.one_of(
            st.just(3.0),  # at the default floor
            st.floats(min_value=1.0, max_value=3.0, exclude_max=True),
            st.floats(min_value=3.0, max_value=50.0, exclude_min=True),
        ),
    )
    def test_suspicion_equals_the_eager_formula(
        self, intervals, seen, lateness, fail_streak, rtt_best, rtt_ratio
    ):
        monitor = HealthMonitor(VirtualClock(), window=25)
        state = monitor._state("b")
        state.intervals = list(intervals)
        state.fail_streak = fail_streak
        if rtt_best is not None:
            state.rtt_best = rtt_best
            state.rtt_ewma = rtt_best * rtt_ratio
        if seen:
            # last_seen is 0.0, so elapsed is exactly the clock reading.
            state.last_seen = 0.0
            mean = math.fsum(intervals) / len(intervals) if intervals else 1.0
            monitor.clock.advance(mean * lateness)
        got = monitor.suspicion("b")
        want = eager_phi(monitor, state, monitor.clock.now())
        assert got.hex() == want.hex()
