"""Result aggregation for group invocations.

Paper §3.1(c): the SyDEngine executes "single or group services remotely
... and aggregate[s] results". Aggregators consume the per-member
:class:`InvocationResult` list a group execution produces. The calendar
uses :func:`intersect_lists` to compute common free slots (§5 step iii:
"find common empty slots by intersecting the views returned from
calendars").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.util.errors import TransactionError


@dataclass(frozen=True)
class InvocationResult:
    """Outcome of one member's invocation in a group call."""

    member: str
    ok: bool
    value: Any = None
    error_type: str | None = None
    error_message: str | None = None


@dataclass(frozen=True)
class GroupResult:
    """All members' outcomes plus convenience accessors."""

    results: tuple[InvocationResult, ...]

    @property
    def succeeded(self) -> list[InvocationResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> list[InvocationResult]:
        return [r for r in self.results if not r.ok]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def value_of(self, member: str) -> Any:
        """The value returned by ``member`` (raises if it failed/absent)."""
        for r in self.results:
            if r.member == member:
                if not r.ok:
                    raise TransactionError(
                        f"member {member} failed: {r.error_type}: {r.error_message}"
                    )
                return r.value
        raise TransactionError(f"no result for member {member!r}")

    def aggregate(self, aggregator: "Aggregator") -> Any:
        return aggregator(self.results)


Aggregator = Callable[[Sequence[InvocationResult]], Any]


def collect_all(results: Sequence[InvocationResult]) -> dict[str, Any]:
    """``{member: value}`` for successful members only."""
    return {r.member: r.value for r in results if r.ok}


def require_all(results: Sequence[InvocationResult]) -> dict[str, Any]:
    """Like :func:`collect_all` but raises when any member failed."""
    failures = [r for r in results if not r.ok]
    if failures:
        detail = ", ".join(f"{r.member}({r.error_type})" for r in failures)
        raise TransactionError(f"group call failed for: {detail}")
    return {r.member: r.value for r in results}


def first_success(results: Sequence[InvocationResult]) -> Any:
    """Value of the first member that succeeded (raises when none did)."""
    for r in results:
        if r.ok:
            return r.value
    raise TransactionError("no member succeeded")


def merge_lists(results: Sequence[InvocationResult]) -> list[Any]:
    """Concatenate list results of successful members (stable order)."""
    out: list[Any] = []
    for r in results:
        if r.ok and r.value:
            out.extend(r.value)
    return out


def intersect_lists(results: Sequence[InvocationResult]) -> list[Any]:
    """Intersection of list results across *all* members.

    Any failed member makes the intersection empty: a common free slot
    must be confirmed free by everyone (paper §5 step ii: "ensure that
    all participants confirm, before the subsequent actions would be
    valid"). Order follows the first member's list.
    """
    if not results or any(not r.ok for r in results):
        return []
    first = list(results[0].value or [])
    first_keys = list(map(_hashable, first))
    keep = set(first_keys)
    for r in results[1:]:
        keep &= set(map(_hashable, r.value or []))
    return [item for item, key in zip(first, first_keys) if key in keep]


def count_success(results: Sequence[InvocationResult]) -> int:
    """How many members succeeded."""
    return sum(1 for r in results if r.ok)


def quorum(fraction: float) -> Aggregator:
    """Aggregator factory: True when ≥ ``fraction`` of members succeeded.

    Used for the §5 "quorum of 50% among the faculty of Biology" style
    checks.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")

    def check(results: Sequence[InvocationResult]) -> bool:
        if not results:
            return False
        return count_success(results) >= fraction * len(results)

    return check


#: value types the key of :func:`_hashable` is built from recursively
_NESTED = (list, dict)


def _hashable(value: Any) -> Any:
    """Hashable key of a JSON-like value: lists become tuples, dicts
    frozensets of their items, recursively. A dict's key is never a
    tuple, so it never equals the key of the list of its pairs."""
    if isinstance(value, dict):
        for item in value.values():
            if isinstance(item, _NESTED):
                return frozenset((k, _hashable(v)) for k, v in value.items())
        # Flat dict (the free-slot entity): the same key without the walk.
        return frozenset(value.items())
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value
