"""Traffic accounting.

Every experiment in EXPERIMENTS.md reports messages/bytes moved and total
simulated network latency; :class:`NetworkStats` collects those as the
transport delivers traffic. ``snapshot``/``delta`` let harness code
measure a single operation inside a longer-running world.

The counters are declared once, as the fields of :class:`StatsSnapshot`.
Each scalar field ``f`` is the registry counter ``net.f`` under the
pseudo-node ``"net"`` of the shared
:class:`~repro.obs.metrics.MetricsRegistry`, and ``by_kind`` is the
family ``net.by_kind.<kind>``, so network traffic shows up next to
kernel/txn/store metrics in one snapshot. :class:`NetworkStats` is a
view over those registry counters: the transport bumps them through
:meth:`NetworkStats.add` / :meth:`NetworkStats.add_kind`, and
``stats.messages`` etc. read them back. Everything else (``snapshot``,
``delta``, the attribute reads) loops over the declaration.

Scatter-gather batches (``Transport.rpc_many``) are accounted twice:
every leg's delay lands in the ordinary per-message counters (so
``latency`` remains total network *busy time*, independent of
concurrency), and the batch itself adds to ``concurrent_batches`` /
``batched_legs`` and records its critical-path delay in the registry's
``net.batch_latency`` digest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields

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
    """The traffic counters at one instant; their one declaration."""

    #: delivered legs, requests and replies
    messages: int = 0
    replies: int = 0
    bytes: int = 0
    #: summed leg delays: total network busy time
    latency: float = 0.0
    #: request legs lost to a drop rule / to an unreachable destination
    dropped: int = 0
    unreachable: int = 0
    #: delivered legs per message kind (``net.by_kind.<kind>``)
    by_kind: Counter = field(default_factory=Counter)
    concurrent_batches: int = 0
    batched_legs: int = 0
    #: legs re-sent by a RetryPolicy, and those that then succeeded
    retries: int = 0
    retry_successes: int = 0
    #: reply legs that never made it back (handler ran, caller sees a
    #: network error: the at-least-once hazard)
    reply_lost: int = 0
    #: one-way sends whose remote handler raised (swallowed at the
    #: transport; fire-and-forget senders never observe them)
    send_failures: int = 0
    #: extra deliveries of an already-delivered request (fault model)
    duplicates: int = 0
    #: hedged second legs launched, and those that beat the primary
    hedges: int = 0
    hedge_wins: int = 0

    def delta(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """Counters accumulated since ``earlier`` (keys never dropped)."""
        return StatsSnapshot(
            by_kind=_counter_delta(self.by_kind, earlier.by_kind),
            **{name: getattr(self, name) - getattr(earlier, name) for name in _COUNTERS},
        )


NODE = "net"

#: scalar counter -> (its registry key, the type readers see)
_COUNTERS: dict[str, tuple[tuple[str, str], type]] = {
    f.name: ((NODE, f"net.{f.name}"), type(f.default))
    for f in fields(StatsSnapshot)
    if f.name != "by_kind"
}


class NetworkStats:
    """Registry-backed counters updated by the transport.

    A standalone ``NetworkStats()`` owns a private registry; a world
    passes its shared one so traffic counters appear in the fleet-wide
    snapshot. Each declared counter reads as an attribute
    (``stats.messages``); an undeclared name raises ``AttributeError``
    on read and ``KeyError`` on :meth:`add`, and never creates a counter.
    """

    NODE = NODE

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # The writers run once per simulated message leg, so they update
        # the registry's counter dict directly with precomputed key tuples
        # instead of paying registry.inc()'s call and f-string per bump.
        self._counters = self.registry.counter_map()
        #: kind -> interned ("net", "net.by_kind.<kind>") key tuple
        self._kind_keys: dict[str, tuple[str, str]] = {}

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the declared counter ``name``."""
        key = _COUNTERS[name][0]
        counters = self._counters
        counters[key] = counters.get(key, 0) + value

    def add_kind(self, kind: str) -> None:
        """Count one delivered leg of message ``kind``."""
        key = self._kind_keys.get(kind)
        if key is None:
            key = self._kind_keys[kind] = (NODE, f"net.by_kind.{kind}")
        counters = self._counters
        counters[key] = counters.get(key, 0) + 1

    def __getattr__(self, name: str):
        try:
            key, cast = _COUNTERS[name]
        except KeyError:
            raise AttributeError(f"NetworkStats has no counter {name!r}") from None
        return cast(self._counters.get(key, 0))

    @property
    def by_kind(self) -> Counter:
        """Delivered legs per message kind."""
        counters = self._counters
        return Counter({kind: counters[key] for kind, key in self._kind_keys.items()})

    def snapshot(self) -> StatsSnapshot:
        """Copy the current counters."""
        return StatsSnapshot(
            by_kind=self.by_kind, **{name: getattr(self, name) for name in _COUNTERS}
        )
