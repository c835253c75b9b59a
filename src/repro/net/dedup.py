"""Receiver-side exactly-once machinery: dedup table + reply cache.

PR 2 made invocation *at-least-once* (the engine re-sends legs that fail
with transient transport errors). That is only safe if re-execution is
harmless — and the calendar's negotiation verbs are not: a ``mark``
executed twice acquires a reentrant lock at depth 2 and a single
``unmark`` leaves residue. Real delivery faults create exactly that
situation: a *lost reply* (handler ran, response dropped) makes the
sender re-send an already-applied request, and a flaky link can simply
*deliver a request twice*.

The :class:`DedupTable` gives a listener exactly-once semantics on top of
the at-least-once transport:

* every RPC request is stamped with an idempotency key
  ``(sender_id, incarnation, seq)`` (see ``Transport``); ``seq`` counts
  per (sender, destination) pair so each receiver observes a gap-free
  sequence per sender;
* the first execution of a key caches its reply (success *or* typed
  error) in a bounded LRU; a re-delivery replays the cached reply
  without touching application state;
* a per-sender *watermark* (highest contiguous seq processed) bounds the
  cache: entries far below the watermark are pruned, and a key at or
  below the watermark whose reply was pruned is *suppressed* (typed
  :class:`StaleMessageError`) rather than re-executed;
* *incarnation fencing*: a restarted sender bumps its incarnation epoch
  and restarts seq at 1. Keys from older incarnations are fenced, so a
  delayed pre-crash duplicate can never corrupt post-restart state, and
  post-restart seq reuse is never mistaken for a duplicate.

The watermark state (incarnation, contiguous seq, processed-out-of-order
set) is persisted through the node's own data store — and therefore
through the WAL journal chaos episodes attach — via
:class:`DedupPersistence`, so it survives participant restarts. The
reply cache itself is volatile, like the lock table: after a restart a
duplicate of a pre-crash request is suppressed (at-most-once for that
key) instead of replayed, which is still safe.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.datastore.schema import ColumnType, schema

#: admit() verdicts
EXECUTE = "execute"    # first sighting: run the handler, then record()
REPLAY = "replay"      # duplicate with cached reply: return/raise it
SUPPRESS = "suppress"  # processed, reply pruned: refuse with StaleMessageError
FENCED = "fenced"      # stale sender incarnation: refuse with StaleMessageError


@dataclass
class _SenderState:
    """Per-sender watermark bookkeeping."""

    incarnation: int
    #: highest seq S such that every seq in [1, S] has been processed
    contig: int = 0
    #: seqs processed out of order (> contig); drained as the gap fills
    pending: set[int] = field(default_factory=set)


class DedupTable:
    """Bounded receiver-side dedup + reply cache (one per listener).

    ``capacity`` bounds the global reply LRU; ``window`` is how far below
    a sender's contiguous watermark replies are retained for replay
    (retries arrive within a handful of messages, so a small window
    suffices — anything older is suppressed instead).
    """

    def __init__(
        self,
        capacity: int = 512,
        window: int = 64,
        persist: "DedupPersistence | None" = None,
    ):
        self.capacity = capacity
        self.window = window
        self.persist = persist
        self._replies: OrderedDict[tuple[str, int, int], dict[str, Any]] = OrderedDict()
        self._senders: dict[str, _SenderState] = {}
        self.hits = 0
        self.executions = 0
        self.suppressed = 0
        self.fenced = 0
        self.evicted = 0
        if persist is not None:
            self._senders = persist.load()

    # -- admission -----------------------------------------------------------

    def admit(
        self, sender: str, incarnation: int, seq: int
    ) -> tuple[str, dict[str, Any] | None]:
        """Classify an incoming key; returns ``(verdict, cached_reply)``.

        ``cached_reply`` is only set for :data:`REPLAY`.
        """
        state = self._senders.get(sender)
        if state is not None and incarnation < state.incarnation:
            self.fenced += 1
            return FENCED, None
        if state is None or incarnation > state.incarnation:
            # First contact, or the sender restarted: fence its past by
            # adopting the new incarnation and pruning old-epoch replies.
            if state is not None:
                self._prune_sender(sender, state.incarnation)
            state = _SenderState(incarnation)
            self._senders[sender] = state
        key = (sender, incarnation, seq)
        cached = self._replies.get(key)
        if cached is not None:
            self._replies.move_to_end(key)
            self.hits += 1
            return REPLAY, cached
        if seq <= state.contig or seq in state.pending:
            # Processed before, but the reply aged out of the cache.
            self.suppressed += 1
            return SUPPRESS, None
        return EXECUTE, None

    def record(
        self, sender: str, incarnation: int, seq: int, reply: dict[str, Any]
    ) -> None:
        """Cache the reply of an executed key and advance the watermark."""
        self.executions += 1
        state = self._senders.get(sender)
        if state is None:
            state = self._senders[sender] = _SenderState(incarnation)
        key = (sender, incarnation, seq)
        self._replies[key] = reply
        self._replies.move_to_end(key)
        while len(self._replies) > self.capacity:
            self._replies.popitem(last=False)
            self.evicted += 1
        if seq == state.contig + 1:
            state.contig = seq
            while state.contig + 1 in state.pending:
                state.pending.discard(state.contig + 1)
                state.contig += 1
        elif seq > state.contig:
            state.pending.add(seq)
        # Watermark pruning: replies comfortably below the contiguous
        # point can no longer be needed by an in-flight retry.
        floor = state.contig - self.window
        if floor > 0:
            for key in [
                k
                for k in self._replies
                if k[0] == sender and k[1] == incarnation and k[2] <= floor
            ]:
                del self._replies[key]
        if self.persist is not None:
            self.persist.save(sender, state)

    # -- lifecycle -----------------------------------------------------------

    def restart(self) -> None:
        """Simulate a node power-cycle: the reply cache is volatile and is
        lost; the persisted watermarks are reloaded (empty without a
        persistence adapter)."""
        self._replies.clear()
        self._senders = self.persist.load() if self.persist is not None else {}

    def _prune_sender(self, sender: str, incarnation: int) -> None:
        for key in [
            k for k in self._replies if k[0] == sender and k[1] <= incarnation
        ]:
            del self._replies[key]

    # -- introspection ---------------------------------------------------------

    def watermark(self, sender: str) -> tuple[int, int] | None:
        """``(incarnation, contiguous_seq)`` known for ``sender``."""
        state = self._senders.get(sender)
        if state is None:
            return None
        return (state.incarnation, state.contig)

    def cached_replies(self) -> int:
        return len(self._replies)


class DedupPersistence:
    """Stores dedup watermarks in a ``_syd_dedup`` table of a node store.

    The table is part of the node's ordinary data store, so the chaos
    WAL journal records watermark movement like any application write and
    ``check_wal_recovery`` covers it. Created eagerly at node
    construction (journals only cover tables that exist when attached).
    """

    TABLE = "_syd_dedup"

    def __init__(self, store):
        self.store = store
        if not store.has_table(self.TABLE):
            store.create_table(
                self.TABLE,
                schema(
                    "sender",
                    sender=ColumnType.STR,
                    incarnation=ColumnType.INT,
                    contig=ColumnType.INT,
                    pending=ColumnType.JSON,
                ),
            )

    def save(self, sender: str, state: _SenderState) -> None:
        """One keyed write: an insert for a new sender, else a replace."""
        self.store.put(
            self.TABLE,
            {
                "sender": sender,
                "incarnation": state.incarnation,
                "contig": state.contig,
                "pending": sorted(state.pending),
            },
        )

    def load(self) -> dict[str, _SenderState]:
        return {
            row["sender"]: _SenderState(
                row["incarnation"], row["contig"], set(row["pending"] or ())
            )
            for row in self.store.select(self.TABLE)
        }
