"""Traffic accounting.

Every experiment in EXPERIMENTS.md reports messages/bytes moved and total
simulated network latency; :class:`NetworkStats` collects those as the
transport delivers traffic. ``snapshot``/``delta`` let harness code
measure a single operation inside a longer-running world.

Since the observability PR, :class:`NetworkStats` is a **view** over the
shared :class:`~repro.obs.metrics.MetricsRegistry`: each ``record_*``
call lands in registry counters under the pseudo-node ``"net"``
(``net.messages``, ``net.bytes``, ``net.by_kind.<kind>`` ...), so network
traffic shows up next to kernel/txn/store metrics in one snapshot. The
scalar attributes (``stats.messages`` etc.) remain available as
properties reading the registry, so existing tests and harness code are
unchanged.

Scatter-gather batches (``Transport.rpc_many``) are accounted twice:
every leg's delay lands in the ordinary per-message counters (so
``latency`` remains total network *busy time*, independent of
concurrency), and the batch itself increments ``concurrent_batches`` /
``batched_legs`` and records its critical-path delay in the registry's
``net.batch_latency`` digest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry

__all__ = ["StatsSnapshot", "NetworkStats"]


def _counter_delta(later: Counter, earlier: Counter) -> Counter:
    """Key-preserving ``later - earlier``.

    Plain ``Counter`` subtraction drops zero and negative results, so a
    delta would silently lose kinds whose count did not increase. Every
    key present on either side survives here, with its exact difference.
    """
    keys = set(later) | set(earlier)
    return Counter({k: later.get(k, 0) - earlier.get(k, 0) for k in keys})


@dataclass
class StatsSnapshot:
    """Immutable copy of the counters at one instant."""

    messages: int = 0
    replies: int = 0
    bytes: int = 0
    latency: float = 0.0
    dropped: int = 0
    unreachable: int = 0
    by_kind: Counter = field(default_factory=Counter)
    concurrent_batches: int = 0
    batched_legs: int = 0
    retries: int = 0
    retry_successes: int = 0
    reply_lost: int = 0
    send_failures: int = 0
    duplicates: int = 0
    hedges: int = 0
    hedge_wins: int = 0

    def delta(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """Counters accumulated since ``earlier`` (keys never dropped)."""
        return StatsSnapshot(
            messages=self.messages - earlier.messages,
            replies=self.replies - earlier.replies,
            bytes=self.bytes - earlier.bytes,
            latency=self.latency - earlier.latency,
            dropped=self.dropped - earlier.dropped,
            unreachable=self.unreachable - earlier.unreachable,
            by_kind=_counter_delta(self.by_kind, earlier.by_kind),
            concurrent_batches=self.concurrent_batches - earlier.concurrent_batches,
            batched_legs=self.batched_legs - earlier.batched_legs,
            retries=self.retries - earlier.retries,
            retry_successes=self.retry_successes - earlier.retry_successes,
            reply_lost=self.reply_lost - earlier.reply_lost,
            send_failures=self.send_failures - earlier.send_failures,
            duplicates=self.duplicates - earlier.duplicates,
            hedges=self.hedges - earlier.hedges,
            hedge_wins=self.hedge_wins - earlier.hedge_wins,
        )


class NetworkStats:
    """Registry-backed counters updated by the transport.

    A standalone ``NetworkStats()`` owns a private registry; a world
    passes its shared one so traffic counters appear in the fleet-wide
    snapshot. ``by_kind`` stays a real ``Counter`` (tests compare it
    directly) and is mirrored into the registry as ``net.by_kind.<kind>``
    counters.
    """

    NODE = "net"

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.by_kind: Counter = Counter()
        # Hot-path plumbing: the delivery recorders run once per simulated
        # message leg, so they write the registry's counter dict directly
        # with precomputed (node, name) key tuples instead of paying a
        # method call plus an f-string per counter bump. End state is
        # identical to registry.inc() per event.
        self._counters = self.registry.counter_map()
        self._key_messages = (self.NODE, "net.messages")
        self._key_replies = (self.NODE, "net.replies")
        self._key_bytes = (self.NODE, "net.bytes")
        self._key_latency = (self.NODE, "net.latency")
        #: kind -> interned ("net", "net.by_kind.<kind>") key tuple
        self._kind_keys: dict[str, tuple[str, str]] = {}

    # -- registry plumbing -------------------------------------------------

    def _inc(self, name: str, value: float = 1) -> None:
        self.registry.inc(self.NODE, f"net.{name}", value)

    def _get(self, name: str) -> int:
        return int(self.registry.counter(self.NODE, f"net.{name}"))

    @property
    def messages(self) -> int:
        return self._get("messages")

    @property
    def replies(self) -> int:
        return self._get("replies")

    @property
    def bytes(self) -> int:
        return self._get("bytes")

    @property
    def latency(self) -> float:
        return float(self.registry.counter(self.NODE, "net.latency"))

    @property
    def dropped(self) -> int:
        return self._get("dropped")

    @property
    def unreachable(self) -> int:
        return self._get("unreachable")

    @property
    def concurrent_batches(self) -> int:
        return self._get("concurrent_batches")

    @property
    def batched_legs(self) -> int:
        return self._get("batched_legs")

    @property
    def retries(self) -> int:
        """Legs re-sent by a RetryPolicy."""
        return self._get("retries")

    @property
    def retry_successes(self) -> int:
        """Retried legs that then succeeded."""
        return self._get("retry_successes")

    @property
    def reply_lost(self) -> int:
        """Reply legs that never made it back (handler ran, caller sees a
        network error — the at-least-once hazard)."""
        return self._get("reply_lost")

    @property
    def send_failures(self) -> int:
        """One-way sends whose remote handler raised (swallowed at the
        transport; fire-and-forget senders never observe them)."""
        return self._get("send_failures")

    @property
    def duplicates(self) -> int:
        """Extra deliveries of an already-delivered request (fault model)."""
        return self._get("duplicates")

    @property
    def hedges(self) -> int:
        """Hedged second legs launched after a suspicion-scaled delay."""
        return self._get("hedges")

    @property
    def hedge_wins(self) -> int:
        """Hedged legs whose reply beat the primary's."""
        return self._get("hedge_wins")

    # -- recorders ---------------------------------------------------------

    def record_delivery(self, kind: str, size: int, delay: float, is_reply: bool) -> None:
        """Account one successfully delivered message leg."""
        counters = self._counters
        get = counters.get
        counters[self._key_messages] = get(self._key_messages, 0) + 1
        if is_reply:
            counters[self._key_replies] = get(self._key_replies, 0) + 1
        counters[self._key_bytes] = get(self._key_bytes, 0) + size
        counters[self._key_latency] = get(self._key_latency, 0) + delay
        self.by_kind[kind] += 1
        kind_key = self._kind_keys.get(kind)
        if kind_key is None:
            kind_key = self._kind_keys[kind] = (self.NODE, f"net.by_kind.{kind}")
        counters[kind_key] = get(kind_key, 0) + 1

    def record_dropped(self) -> None:
        self._inc("dropped")

    def record_unreachable(self) -> None:
        self._inc("unreachable")

    def record_batch(self, legs: int, max_delay: float) -> None:
        """Account one scatter-gather batch of ``legs`` concurrent calls."""
        self._inc("concurrent_batches")
        self._inc("batched_legs", legs)
        self.registry.record_value(self.NODE, "net.batch_latency", max_delay)

    def record_retry(self, legs: int = 1) -> None:
        """Account ``legs`` re-sent under a retry policy."""
        self._inc("retries", legs)

    def record_retry_success(self, legs: int = 1) -> None:
        """Account ``legs`` that succeeded after at least one retry."""
        self._inc("retry_successes", legs)

    def record_reply_lost(self) -> None:
        """Account a reply leg lost after the handler executed."""
        self._inc("reply_lost")

    def record_send_failure(self) -> None:
        """Account a one-way send whose remote handler raised."""
        self._inc("send_failures")

    def record_duplicate(self) -> None:
        """Account one duplicate delivery of a request."""
        self._inc("duplicates")

    def record_hedge(self) -> None:
        """Account one hedged second leg (the primary looked slow)."""
        self._inc("hedges")

    def record_hedge_win(self) -> None:
        """Account a hedged leg that answered before the primary."""
        self._inc("hedge_wins")

    def snapshot(self) -> StatsSnapshot:
        """Copy the current counters."""
        return StatsSnapshot(
            messages=self.messages,
            replies=self.replies,
            bytes=self.bytes,
            latency=self.latency,
            dropped=self.dropped,
            unreachable=self.unreachable,
            by_kind=Counter(self.by_kind),
            concurrent_batches=self.concurrent_batches,
            batched_legs=self.batched_legs,
            retries=self.retries,
            retry_successes=self.retry_successes,
            reply_lost=self.reply_lost,
            send_failures=self.send_failures,
            duplicates=self.duplicates,
            hedges=self.hedges,
            hedge_wins=self.hedge_wins,
        )

    def reset(self) -> None:
        """Zero all counters (registry metrics under ``"net"`` included)."""
        self.registry.reset_node(self.NODE)
        self.by_kind.clear()
