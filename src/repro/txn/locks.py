"""Entity lock manager.

Paper §4.3's negotiation semantics are built on "Mark X for change and
Lock X". Each node runs one :class:`LockManager` guarding its local
entities (calendar slots, fleet routes, ...). Entities are identified by
any hashable-after-normalization value (lists/dicts are canonicalized).

Locks are owner-tagged and reentrant for the same owner. The synchronous
simulation never blocks: an unavailable lock is an immediate refusal
(``try_lock`` → False), which is exactly the paper's "try may not
succeed" behaviour.

When constructed with a clock, every acquisition also carries a *lease*
deadline. A lease does not expire a lock by itself — the manager is
passive — but :meth:`expired` lets the owner's node run the
participant-driven termination protocol (query the coordinator's durable
decision, then :meth:`renew` or :meth:`force_release`), so a mark left
behind by a crashed coordinator cannot outlive its lease.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.util.trace import maybe_span


def _canon(entity: Any) -> Any:
    """Normalize an entity id so JSON-ish values can key a dict."""
    if isinstance(entity, list):
        return tuple(_canon(e) for e in entity)
    if isinstance(entity, dict):
        return tuple(sorted((k, _canon(v)) for k, v in entity.items()))
    return entity


class LockManager:
    """Owner-tagged, reentrant entity locks for one node."""

    def __init__(
        self,
        clock=None,
        default_lease: float = 20.0,
        metrics=None,
        metrics_node: str = "",
        skew=None,
        tracer=None,
    ) -> None:
        self._locks: dict[Any, tuple[str, int]] = {}  # entity -> (owner, depth)
        self._deadlines: dict[Any, float] = {}  # entity -> lease deadline
        self._acquired_at: dict[Any, float] = {}  # entity -> first-acquire time
        #: (entity, owner) -> virtual time of the owner's *first* refusal,
        #: so a later successful acquisition can report how long the
        #: owner waited (across its retries) for the entity to free up
        self._refused_at: dict[tuple[Any, str], float] = {}
        self._clock = clock
        #: optional Tracer: acquisitions/refusals emit zero-duration
        #: ``txn.lock`` spans carrying the wait time, the raw material
        #: for the ``lock.wait`` attribution category (repro.obs.critical)
        self._tracer = tracer
        self.default_lease = default_lease
        #: optional zero-arg callable returning this node's clock-skew
        #: offset (gray fault model): lease deadlines are stamped against
        #: the node's *perceived* time, so a skewed device's leases drift
        #: against the termination sweeps that read honest time. The
        #: simulation clock itself is never touched.
        self.skew = skew
        #: optional MetricsRegistry sink (txn.lock_* counters, hold-time digest)
        self._metrics = metrics
        self._metrics_node = metrics_node
        self.acquisitions = 0
        self.refusals = 0
        self.forced_releases = 0

    def _metric(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(self._metrics_node, name)

    def _note_held(self) -> None:
        if self._metrics is not None:
            self._metrics.set_gauge(
                self._metrics_node, "txn.locks_held", len(self._locks)
            )

    def _note_release(self, key: Any) -> None:
        """Observe the hold time of a fully released lock."""
        start = self._acquired_at.pop(key, None)
        if self._metrics is not None and start is not None and self._clock is not None:
            self._metrics.record_value(
                self._metrics_node, "txn.lock_hold", self._clock.now() - start
            )
        self._note_held()

    def try_lock(self, entity: Any, owner: str) -> bool:
        """Acquire if free or already ours; False when held by another.

        Each (re)acquisition refreshes the lease deadline when the
        manager has a clock. With a tracer attached, the attempt lands
        as a zero-duration ``txn.lock`` span whose ``wait`` attribute is
        the virtual time between this owner's *first* refusal for the
        entity and the acquisition that finally succeeded — the
        try-lock analogue of blocking lock wait.
        """
        key = _canon(entity)
        held = self._locks.get(key)
        if held is None:
            self._locks[key] = (owner, 1)
            self._stamp(key)
            wait = 0.0
            if self._clock is not None:
                now = self._clock.now()
                self._acquired_at[key] = now
                refused = self._refused_at.pop((key, owner), None)
                if refused is not None:
                    wait = now - refused
                    if self._metrics is not None and wait > 0.0:
                        self._metrics.record_value(
                            self._metrics_node, "txn.lock_wait", wait
                        )
            self.acquisitions += 1
            self._metric("txn.lock_acquisitions")
            self._note_held()
            with maybe_span(
                self._tracer,
                "txn.lock",
                self._metrics_node,
                entity=str(key),
                owner=owner,
                outcome="acquired",
            ) as span:
                if wait > 0.0:
                    span.set(wait=round(wait, 9))
            return True
        if held[0] == owner:
            self._locks[key] = (owner, held[1] + 1)
            self._stamp(key)
            self.acquisitions += 1
            self._metric("txn.lock_acquisitions")
            return True
        self.refusals += 1
        self._metric("txn.lock_refusals")
        if self._clock is not None:
            self._refused_at.setdefault((key, owner), self._clock.now())
        with maybe_span(
            self._tracer,
            "txn.lock",
            self._metrics_node,
            entity=str(key),
            owner=owner,
            outcome="refused",
            holder=held[0],
        ):
            pass
        return False

    def lock(self, entity: Any, owner: str) -> None:
        """Acquire or raise :class:`LockUnavailableError`."""
        if not self.try_lock(entity, owner):
            from repro.util.errors import LockUnavailableError

            raise LockUnavailableError(
                f"entity {entity!r} is locked by {self.holder(entity)!r}"
            )

    def unlock(self, entity: Any, owner: str) -> None:
        """Release one level.

        Raises :class:`LockNotHeldError` when the entity is not locked
        at all, and the narrower :class:`LockOwnerError` when it is
        locked by a *different* owner — the latter is a protocol bug
        (stale txn id, mis-routed unmark), not a benign race.
        """
        key = _canon(entity)
        held = self._locks.get(key)
        if held is None:
            from repro.util.errors import LockNotHeldError

            raise LockNotHeldError(f"{owner!r} does not hold {entity!r} (not locked)")
        if held[0] != owner:
            from repro.util.errors import LockOwnerError

            raise LockOwnerError(
                f"{owner!r} does not hold {entity!r} (held by {held[0]!r})"
            )
        if held[1] > 1:
            self._locks[key] = (owner, held[1] - 1)
        else:
            del self._locks[key]
            self._deadlines.pop(key, None)
            self._note_release(key)

    def holder(self, entity: Any) -> Optional[str]:
        """Current owner of the lock, or None."""
        held = self._locks.get(_canon(entity))
        return held[0] if held else None

    def is_locked(self, entity: Any) -> bool:
        return _canon(entity) in self._locks

    def release_prefix(self, owner_prefix: str) -> int:
        """Drop every lock whose owner starts with ``owner_prefix``.

        Negotiation owners are ``txn-<node>-<n>``, so a reconnecting
        initiator can shed the locks its dead transactions left behind
        at a peer with the prefix ``txn-<node>-``.
        """
        keys = [
            k
            for k, (o, _) in self._locks.items()
            if isinstance(o, str) and o.startswith(owner_prefix)
        ]
        for k in keys:
            del self._locks[k]
            self._deadlines.pop(k, None)
            self._note_release(k)
        return len(keys)

    def force_release(self, entity: Any) -> Optional[str]:
        """Drop a lock regardless of owner or depth; returns the evicted
        owner (None when the entity was not locked).

        This is the termination-protocol verb: the participant has
        learned (or presumed) the owning transaction aborted, so the
        whole reentrant stack goes at once.
        """
        key = _canon(entity)
        held = self._locks.pop(key, None)
        self._deadlines.pop(key, None)
        if held is None:
            self._acquired_at.pop(key, None)
            return None
        self._note_release(key)
        self.forced_releases += 1
        self._metric("txn.forced_releases")
        return held[0]

    def renew(self, entity: Any, owner: str) -> bool:
        """Push the lease deadline out for a lock we confirmed is still
        wanted; False when ``owner`` no longer holds it."""
        key = _canon(entity)
        held = self._locks.get(key)
        if held is None or held[0] != owner:
            return False
        self._stamp(key)
        return True

    def expired(self, now: float) -> list[tuple[Any, str, float]]:
        """Locks whose lease deadline has passed, as sorted
        ``(entity_key, owner, deadline)`` triples (deterministic order:
        deadline, then stringified key)."""
        out = [
            (key, self._locks[key][0], deadline)
            for key, deadline in self._deadlines.items()
            if deadline <= now and key in self._locks
        ]
        out.sort(key=lambda item: (item[2], str(item[0])))
        return out

    def clear(self) -> int:
        """Drop the whole table (lock state is volatile: lost on crash)."""
        count = len(self._locks)
        self._locks.clear()
        self._deadlines.clear()
        # A crash loses hold-time baselines without observing them: the
        # lock did not end, the node did. Pending wait baselines go the
        # same way — the waiting transactions died with the node.
        self._acquired_at.clear()
        self._refused_at.clear()
        self._note_held()
        return count

    def locked_count(self) -> int:
        return len(self._locks)

    def _stamp(self, key: Any) -> None:
        if self._clock is not None:
            offset = self.skew() if self.skew is not None else 0.0
            self._deadlines[key] = self._clock.now() + offset + self.default_lease
