"""Deterministic, mergeable quantile sketches.

Power-of-two millisecond buckets are fine for dashboards but lossy for
tails: every sample in ``<=2048ms`` is the same bucket, so "p99 = 2.1 s
vs 1.1 s" is invisible. :class:`QuantileDigest` is the one latency
representation :mod:`repro.obs.metrics` keeps: a DDSketch-style
log-spaced sketch with a *fixed relative-error bound*: bucket ``i``
covers ``(gamma^(i-1), gamma^i]`` with ``gamma = (1 + alpha) / (1 -
alpha)``, so any reported quantile is within ``alpha`` (default 1%) of
the true sample value — at any scale, from microsecond lookups to
multi-second chaos tails.

Design constraints, in order:

* **deterministic** — bucket indices come from ``math.log``; state is
  plain ints/floats in dicts keyed by int, serialized with sorted keys.
  Two runs that observe the same samples produce byte-identical
  ``to_dict`` output regardless of ``PYTHONHASHSEED``.
* **mergeable** — ``merge`` sums bucket counts; merging per-window or
  per-node sketches is exact (the merged sketch equals the sketch of
  the concatenated samples), which is what lets chaos episodes evaluate
  SLOs over windows recorded all over the fleet.
* **exact extremes** — ``min``/``max``/``sum``/``count`` are tracked
  exactly alongside the sketch; ``quantile(0)``/``quantile(1)`` return
  the true extremes and interior quantiles are clamped into them.

Non-positive samples (virtual-time durations are >= 0, but a zero-delay
loopback hop is common) land in a dedicated zero bucket and report as
``0.0``.
"""

from __future__ import annotations

import math
from typing import Any

#: default relative-error bound (1%)
DEFAULT_ALPHA = 0.01


class QuantileDigest:
    """Log-spaced quantile sketch with relative error ``alpha``.

    Samples are arbitrary non-negative floats (seconds, here). Memory is
    O(log(max/min) / alpha) — tens of buckets for the simulator's range.
    """

    __slots__ = ("alpha", "gamma", "_log_gamma", "count", "sum", "min", "max",
                 "zero", "buckets")

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: samples <= 0 (exact count, reported as 0.0)
        self.zero = 0
        #: bucket index -> count; index i covers (gamma^(i-1), gamma^i]
        self.buckets: dict[int, int] = {}

    # -- writers ---------------------------------------------------------

    def add(self, value: float, weight: int = 1) -> None:
        """Record ``value`` ``weight`` times."""
        if weight <= 0:
            return
        self.count += weight
        self.sum += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero += weight
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + weight

    def merge(self, other: "QuantileDigest") -> None:
        """Fold ``other`` into this sketch (exact for matching alphas)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge digests with different alphas "
                f"({self.alpha} vs {other.alpha})"
            )
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.zero += other.zero
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    # -- readers ---------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within ``alpha`` relative error.

        Returns 0.0 on an empty sketch. ``q <= 0`` / ``q >= 1`` return
        the exact min/max; interior estimates are clamped into them.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        # rank of the q-th sample, 1-based, nearest-rank definition
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero:
            return max(0.0, self.min)
        seen = self.zero
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # midpoint of (gamma^(i-1), gamma^i] in relative terms
                estimate = 2.0 * self.gamma ** index / (self.gamma + 1.0)
                return min(self.max, max(self.min, estimate))
        return self.max  # pragma: no cover - rank <= count by construction

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot; keys sorted, floats rounded for stability."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": round(self.min, 9) if self.count else None,
            "max": round(self.max, 9) if self.count else None,
            "zero": self.zero,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QuantileDigest":
        digest = cls(alpha=data.get("alpha", DEFAULT_ALPHA))
        digest.count = data["count"]
        digest.sum = data["sum"]
        if digest.count:
            digest.min = data["min"]
            digest.max = data["max"]
        digest.zero = data.get("zero", 0)
        digest.buckets = {int(k): v for k, v in data.get("buckets", {}).items()}
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileDigest(count={self.count}, min={self.min!r}, "
            f"max={self.max!r}, p50={self.quantile(0.5):.6f}, "
            f"p99={self.quantile(0.99):.6f})"
        )
