"""Per-node, per-subsystem metrics registry.

Before this module every subsystem grew its own ad-hoc counters
(``NetworkStats``, ``DirectoryCache.hits``, ``listener.replays`` ...),
none of which were visible in one place or attributable to a node.
:class:`MetricsRegistry` gives the simulated deployment one sink:

* **counters** — monotone event counts (``net.messages``,
  ``txn.intent_writes``, ``store.wal_appends``);
* **gauges** — last-write-wins values (``txn.locks_held``);
* **digests** — virtual-time distributions as windowed quantile
  digests with exact count, sum, min and max
  (``kernel.dispatch.<verb>``, ``txn.lock_hold``, ``op.<name>``).

Metric names follow ``subsystem.metric[.qualifier]`` — e.g.
``net.bytes``, ``dir.cache_hits``, ``kernel.dispatch.change`` — and are
keyed by ``(node, name)`` so fleets aggregate naturally.  Everything is
plain dict state updated synchronously from simulation code, so
snapshots are deterministic for a fixed seed.

Metrics only accumulate: nothing resets the registry, and a harness
measures an interval by differencing two snapshots (the traffic
counters through :meth:`~repro.net.stats.StatsSnapshot.delta`).
"""

from __future__ import annotations

from typing import Any

from repro.obs.digest import QuantileDigest
from repro.util.clock import VirtualClock


#: virtual seconds per quantile-digest window
DIGEST_WINDOW = 60.0


class MetricsRegistry:
    """Counters, gauges and virtual-time digests keyed by ``(node, name)``."""

    def __init__(self, clock: VirtualClock | None = None):
        #: virtual clock read by digest windows
        self.clock = clock or VirtualClock()
        self._counters: dict[tuple[str, str], float] = {}
        self._gauges: dict[tuple[str, str], float] = {}
        #: quantile sketches per (node, name): window index -> digest
        self._digests: dict[tuple[str, str], dict[int, QuantileDigest]] = {}
        #: virtual seconds per digest window
        self.digest_window = DIGEST_WINDOW

    # -- writers ---------------------------------------------------------

    def inc(self, node: str, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` on ``node``."""
        key = (node, name)
        self._counters[key] = self._counters.get(key, 0) + value

    def counter_map(self) -> dict[tuple[str, str], float]:
        """The live counter dict, for hot-path accumulators.

        Hot-path writers (:class:`~repro.net.stats.NetworkStats`, the WAL)
        update this directly with precomputed ``(node, name)`` key tuples:
        identical end state to calling :meth:`inc` per event, without a
        method call and f-string per counter bump. Readers should stick
        to :meth:`counter`/:meth:`snapshot`.
        """
        return self._counters

    def set_gauge(self, node: str, name: str, value: float) -> None:
        """Set gauge ``name`` on ``node`` to ``value``."""
        self._gauges[(node, name)] = value

    def record_value(self, node: str, name: str, value: float) -> None:
        """Record one sample into the quantile digest for ``(node, name)``.

        Samples land in the virtual-time window containing *now*
        (``digest_window`` seconds wide); windows merge exactly, so any
        span of windows — or the whole series — reports quantiles with
        the digest's fixed relative-error bound.
        """
        windows = self._digests.setdefault((node, name), {})
        index = int(self.clock.now() // self.digest_window)
        digest = windows.get(index)
        if digest is None:
            digest = windows[index] = QuantileDigest()
        digest.add(value)

    # -- readers ---------------------------------------------------------

    def counter(self, node: str, name: str) -> float:
        """Current value of a counter (0 if never written)."""
        return self._counters.get((node, name), 0)

    def gauge(self, node: str, name: str) -> float | None:
        """Current value of a gauge (None if never written)."""
        return self._gauges.get((node, name))

    def digest(self, node: str, name: str) -> QuantileDigest:
        """Merged quantile digest across every window of ``(node, name)``.

        Returns an empty digest when nothing was recorded.
        """
        merged = QuantileDigest()
        for _, digest in sorted(self._digests.get((node, name), {}).items()):
            merged.merge(digest)
        return merged

    def digest_windows(self, node: str, name: str) -> list[tuple[float, QuantileDigest]]:
        """``(window_start_seconds, digest)`` pairs, oldest first."""
        windows = self._digests.get((node, name), {})
        return [
            (index * self.digest_window, windows[index]) for index in sorted(windows)
        ]

    def merged_digest(self, name: str) -> QuantileDigest:
        """One digest for ``name`` merged across *all* nodes and windows.

        This is the fleet view an SLO evaluates against: per-user op
        latencies recorded on every node, folded into one sketch.
        """
        merged = QuantileDigest()
        for (node, metric), windows in sorted(self._digests.items()):
            if metric != name:
                continue
            for _, digest in sorted(windows.items()):
                merged.merge(digest)
        return merged

    def digest_names(self) -> list[str]:
        """Sorted distinct metric names that have digests recorded."""
        return sorted({name for (_, name) in self._digests})

    def snapshot(self) -> dict[str, Any]:
        """Deterministically ordered, JSON-able copy of every metric."""
        counters = {
            f"{node}/{name}": value
            for (node, name), value in sorted(self._counters.items())
        }
        gauges = {
            f"{node}/{name}": value
            for (node, name), value in sorted(self._gauges.items())
        }
        digests = {}
        for (node, name), windows in sorted(self._digests.items()):
            merged = QuantileDigest()
            for _, digest in sorted(windows.items()):
                merged.merge(digest)
            entry = merged.to_dict()
            entry["windows"] = len(windows)
            digests[f"{node}/{name}"] = entry
        return {
            "counters": counters,
            "gauges": gauges,
            "digests": digests,
        }

    def render(self) -> str:
        """Human-readable dump, one metric per line, sorted."""
        snap = self.snapshot()
        lines: list[str] = []
        for key, value in snap["counters"].items():
            lines.append(f"counter {key} = {value}")
        for key, value in snap["gauges"].items():
            lines.append(f"gauge   {key} = {value}")
        for (node, name), windows in sorted(self._digests.items()):
            merged = self.digest(node, name)
            lines.append(
                f"digest  {node}/{name} count={merged.count} "
                f"min={merged.min:.6f} p50={merged.quantile(0.5):.6f} "
                f"p99={merged.quantile(0.99):.6f} max={merged.max:.6f} "
                f"windows={len(windows)}"
            )
        return "\n".join(lines)
