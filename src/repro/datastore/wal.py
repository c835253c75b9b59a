"""Change journal (write-ahead-log style).

Used in two places:

1. As a persistence/recovery substrate for stores ("lack of persistence of
   their data due to their weak connectivity" is a problem SyD targets,
   paper §1) — a store wrapped in :func:`attach_journal` records every
   mutation, and :func:`replay` reconstructs the state on a fresh store.
2. By the proxy (paper §5.2): while a device is down its proxy journals
   accepted writes and replays them to the device at handback.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple

from repro.datastore.predicate import Cmp
from repro.datastore.store import DataStore
from repro.datastore.triggers import RowTrigger, TriggerContext, TriggerEvent
from repro.util.errors import StoreError

#: journal op name of each trigger event
_OPS = {event: event.value for event in TriggerEvent}
_ALL_EVENTS = frozenset(TriggerEvent)


class JournalEntry(NamedTuple):
    """One recorded mutation (immutable).

    ``op`` is insert/update/delete; ``row`` is the new row for inserts and
    updates, the old row for deletes. ``pk`` identifies the affected row.
    """

    seq: int
    op: str
    table: str
    pk: Any
    row: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "op": self.op, "table": self.table, "pk": self.pk, "row": self.row},
            separators=(",", ":"),
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "JournalEntry":
        d = json.loads(text)
        return JournalEntry(d["seq"], d["op"], d["table"], d["pk"], d["row"])


class ChangeJournal:
    """Append-only log of mutations.

    ``metrics``/``metrics_node`` optionally mirror appends into a
    :class:`~repro.obs.metrics.MetricsRegistry` (``store.wal_appends``
    and per-op ``store.wal_appends.<op>`` under the owning node).
    """

    def __init__(self, metrics=None, metrics_node: str = "") -> None:
        self._entries: list[JournalEntry] = []
        self._seq = 0
        self._metrics_node = metrics_node
        # Counter keys, made once; appends bump the registry's live
        # counter map directly (same end state as ``metrics.inc``).
        self._counters = metrics.counter_map() if metrics is not None else None
        self._total_key = (metrics_node, "store.wal_appends")
        self._op_keys = {
            op: (metrics_node, f"store.wal_appends.{op}") for op in _OPS.values()
        }

    def append(self, op: str, table: str, pk: Any, row: dict[str, Any]) -> JournalEntry:
        """Record one mutation; returns the entry."""
        self._seq += 1
        entry = JournalEntry(self._seq, op, table, pk, dict(row))
        self._entries.append(entry)
        counters = self._counters
        if counters is not None:
            key = self._total_key
            counters[key] = counters.get(key, 0) + 1
            key = self._op_keys.get(op) or (self._metrics_node, f"store.wal_appends.{op}")
            counters[key] = counters.get(key, 0) + 1
        return entry

    def entries(self, since_seq: int = 0) -> list[JournalEntry]:
        """Entries with ``seq > since_seq``, oldest first."""
        return [e for e in self._entries if e.seq > since_seq]

    def last_seq(self) -> int:
        return self._seq

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def serialize(self) -> str:
        """Newline-delimited JSON of all entries."""
        return "\n".join(e.to_json() for e in self._entries)

    @staticmethod
    def deserialize(text: str) -> "ChangeJournal":
        journal = ChangeJournal()
        for line in text.splitlines():
            if not line.strip():
                continue
            entry = JournalEntry.from_json(line)
            journal._entries.append(entry)
            journal._seq = max(journal._seq, entry.seq)
        return journal


def attach_journal(store: DataStore, journal: ChangeJournal) -> Callable[[], None]:
    """Record every mutation of ``store`` into ``journal``.

    Implemented with a wildcard-ish set of row triggers on all current
    tables. Tables created afterwards are not covered (attach after
    schema setup); each trigger keeps the primary-key column its table
    had at attach time. Returns a detach callable.
    """
    removers = []

    def make_action(pk: str) -> Callable[[TriggerContext], None]:
        def action(ctx: TriggerContext) -> None:
            event, table, old, new = ctx
            if event is TriggerEvent.DELETE:
                row = old or {}
            else:
                row = new or {}
            journal.append(_OPS[event], table, row.get(pk), row)

        return action

    for i, table in enumerate(store.table_names()):
        trig = RowTrigger(
            name=f"__journal_{store.name}_{table}_{i}",
            table=table,
            events=_ALL_EVENTS,
            action=make_action(store.schema(table).primary_key),
        )
        removers.append(store.add_trigger(trig))

    def detach() -> None:
        for remove in removers:
            remove()

    return detach


def replay(journal: ChangeJournal, store: DataStore, since_seq: int = 0) -> int:
    """Apply journal entries to ``store``; returns count applied.

    Tables must already exist with compatible schemas. Updates/deletes
    address rows by primary key. Idempotence note: replaying an insert of
    an existing pk raises — callers replay onto a store snapshot from
    before ``since_seq``.
    """
    applied = 0
    for entry in journal.entries(since_seq):
        schema = store.schema(entry.table)
        pk_pred = Cmp(schema.primary_key, "=", entry.pk)
        if entry.op == "insert":
            store.insert(entry.table, entry.row)
        elif entry.op == "update":
            changes = {k: v for k, v in entry.row.items() if k != schema.primary_key}
            if store.update(entry.table, pk_pred, changes) == 0:
                raise StoreError(f"replay update: no row {entry.pk!r} in {entry.table}")
        elif entry.op == "delete":
            store.delete(entry.table, pk_pred)
        else:  # pragma: no cover - journal is library-produced
            raise StoreError(f"unknown journal op {entry.op!r}")
        applied += 1
    return applied
