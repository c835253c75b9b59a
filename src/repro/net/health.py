"""Adaptive failure detection for gray failures (phi-accrual).

Binary liveness ("did the last RPC fail?") cannot see the failures that
dominate the paper's mobile setting: slow radios, stalled-but-alive
hosts, lossy links. Following Hayashibara et al.'s phi-accrual detector,
:class:`HealthMonitor` turns *signs of life* — piggybacked RPC outcomes
and cheap heartbeat sweeps — into a continuous per-node suspicion level
``phi`` instead of a boolean verdict:

``phi(node) = -log10(P(node is alive given its arrival history))``

computed from the normal distribution fitted to the node's recent
inter-arrival intervals, plus two gray-failure terms the classic
detector lacks:

* a **failure-streak boost** (transport-level errors are evidence even
  between heartbeats), and
* an **RTT-degradation boost** (a node whose replies arrive, but ever
  more slowly, is gray — its EWMA round-trip time climbing away from
  its best-case baseline raises phi before anything times out).

Consumers never get a death verdict; they get an *ordering*. The
engine's proxy failover and the sharded directory client's read
failover sort candidates by ``suspicion()`` so the healthiest replica
is tried first, and the hedging path shrinks its hedge delay as
suspicion grows. A node is only skipped outright above
``quarantine_phi``; every such skip is recorded with ground truth so
the ``no_false_deaths`` invariant can prove no healthy node was ever
shed on a wrong verdict.

Everything is fed from the simulated clock and seeded schedules, so
suspicion trajectories are deterministic and byte-identical across
reruns.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.util.clock import VirtualClock

#: pseudo-node under which sweep-level metrics are recorded
HEALTH_NODE = "health"


class _NodeState:
    """Arrival history and gray-signal accumulators for one node."""

    __slots__ = ("intervals", "last_seen", "fail_streak", "rtt_ewma", "rtt_best")

    def __init__(self) -> None:
        self.intervals: list[float] = []
        self.last_seen: float | None = None
        self.fail_streak: int = 0
        self.rtt_ewma: float | None = None
        self.rtt_best: float | None = None


class HealthMonitor:
    """Per-node phi-accrual suspicion, fed by RPC outcomes + heartbeats.

    ``window`` bounds the inter-arrival history per node; ``min_std``
    floors the fitted standard deviation (a too-regular heartbeat would
    otherwise make phi explode on the first late arrival);
    ``fail_weight`` is the phi added per consecutive transport failure;
    ``quarantine_phi`` is the only hard threshold — consumers may skip a
    node outright above it, and must report the skip via
    :meth:`record_verdict` so false deaths are auditable.
    """

    def __init__(
        self,
        clock: VirtualClock,
        *,
        metrics: MetricsRegistry | None = None,
        window: int = 20,
        min_std: float = 0.35,
        fail_weight: float = 0.7,
        rtt_ratio_floor: float = 3.0,
        quarantine_phi: float = 12.0,
    ):
        self.clock = clock
        self.metrics = metrics
        self.window = window
        self.min_std = min_std
        self.fail_weight = fail_weight
        self.rtt_ratio_floor = rtt_ratio_floor
        self.quarantine_phi = quarantine_phi
        self._states: dict[str, _NodeState] = {}
        #: (time, node, phi, actually_healthy) for every quarantine skip —
        #: the ``no_false_deaths`` invariant audits this list
        self.verdicts: list[tuple[float, str, float, bool]] = []

    # -- feeding -----------------------------------------------------------

    def _state(self, node: str) -> _NodeState:
        st = self._states.get(node)
        if st is None:
            st = self._states[node] = _NodeState()
        return st

    def _arrival(self, st: _NodeState) -> None:
        now = self.clock.now()
        if st.last_seen is not None:
            gap = now - st.last_seen
            if gap > 0.0:
                st.intervals.append(gap)
                if len(st.intervals) > self.window:
                    del st.intervals[0]
        st.last_seen = now

    def record_success(self, node: str, rtt: float) -> None:
        """A round trip to ``node`` completed: sign of life + RTT sample."""
        st = self._state(node)
        self._arrival(st)
        st.fail_streak = 0
        if st.rtt_ewma is None:
            st.rtt_ewma = rtt
        else:
            st.rtt_ewma = 0.75 * st.rtt_ewma + 0.25 * rtt
        if st.rtt_best is None or st.rtt_ewma < st.rtt_best:
            st.rtt_best = st.rtt_ewma

    def record_failure(self, node: str) -> None:
        """A transport-level attempt against ``node`` failed (no arrival)."""
        self._state(node).fail_streak += 1

    def record_heartbeat(self, node: str, alive: bool) -> None:
        """One sweep probe: ``alive`` nodes produce an arrival, dead don't."""
        if alive:
            st = self._state(node)
            self._arrival(st)
        else:
            self._state(node).fail_streak += 1

    def forget(self, node: str) -> None:
        """Drop history for a restarted node (its old rhythm is void)."""
        self._states.pop(node, None)

    # -- querying ----------------------------------------------------------

    def suspicion(self, node: str) -> float:
        """Current phi for ``node`` (0.0 = no evidence of trouble)."""
        st = self._states.get(node)
        if st is None:
            return 0.0
        phi = 0.0
        if st.last_seen is not None and len(st.intervals) >= 3:
            elapsed = self.clock.now() - st.last_seen
            mean = math.fsum(st.intervals) / len(st.intervals)
            # The fit's spread matters only to a late arrival, so the
            # variance is computed only then.
            if elapsed > mean:
                var = math.fsum((x - mean) ** 2 for x in st.intervals) / len(st.intervals)
                std = max(math.sqrt(var), self.min_std)
                # P(an arrival would still be pending) under N(mean, std);
                # floored so phi stays finite.
                p_later = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
                phi += -math.log10(max(p_later, 1e-12))
        phi += self.fail_weight * st.fail_streak
        if (
            st.rtt_ewma is not None
            and st.rtt_best is not None
            and st.rtt_best > 0.0
        ):
            ratio = st.rtt_ewma / st.rtt_best
            if ratio > self.rtt_ratio_floor:
                phi += min(4.0, math.log2(ratio / self.rtt_ratio_floor + 1.0))
        return phi

    def rank(self, nodes: Sequence[str]) -> list[str]:
        """``nodes`` sorted healthiest-first (stable: ties keep input order)."""
        return sorted(nodes, key=self.suspicion)

    def is_quarantined(self, node: str) -> bool:
        """May consumers skip this node outright? (phi past the hard bar)"""
        return self.suspicion(node) >= self.quarantine_phi

    def record_verdict(self, node: str, *, actually_healthy: bool) -> None:
        """Audit one quarantine skip with ground truth at decision time.

        ``actually_healthy=True`` means the skipped node was, in fact,
        fine — a *false death*, which ``check_no_false_deaths`` turns
        into an invariant violation.
        """
        self.verdicts.append(
            (self.clock.now(), node, round(self.suspicion(node), 3), actually_healthy)
        )

    def hedge_delay(self, node: str, base: float) -> float:
        """Hedge trigger delay against ``node``: shrinks as phi grows.

        A clean node keeps the full ``base`` delay (hedges stay rare);
        a suspect one is hedged almost immediately.
        """
        return base / (1.0 + self.suspicion(node))

    def snapshot(self) -> dict[str, float]:
        """``{node: phi}`` for every watched node (rounded, sorted keys)."""
        return {n: round(self.suspicion(n), 3) for n in sorted(self._states)}

    # -- heartbeat sweeps --------------------------------------------------

    def sweep(self, probes: Iterable[tuple[str, bool]]) -> None:
        """Record one heartbeat round and publish ``health.phi`` gauges.

        ``probes`` yields ``(node, alive)`` pairs from whatever liveness
        source the world wires in (the simulated world probes transport
        reachability — a *stalled* node is alive to this probe, which is
        exactly the gray-failure trap phi's other signals compensate
        for).
        """
        for node, alive in probes:
            self.record_heartbeat(node, alive)
        if self.metrics is not None:
            for node in self._states:
                self.metrics.set_gauge(node, "health.phi", round(self.suspicion(node), 3))
