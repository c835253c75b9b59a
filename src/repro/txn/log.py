"""The durable negotiation intent log.

:class:`IntentLog` is the crash-recovery half of the coordinator: a
write-ahead record of negotiation *intents* (``BEGIN`` / ``DECIDE`` /
``END``) persisted through the node's own data store — and therefore
through the WAL journal chaos episodes attach — so a restarted
coordinator can resolve every transaction it had in flight. The protocol
is presumed-abort: a ``BEGIN`` with no durable ``DECIDE(commit)`` means
the transaction aborts, so the abort path needs no forced log write.
"""

from __future__ import annotations

from typing import Any


class IntentLog:
    """Durable ``BEGIN``/``DECIDE``/``END`` intent records, presumed-abort.

    Backed by a ``_syd_txn_intents`` table in the node store when one is
    given (the table is created eagerly — WAL journals only cover tables
    that exist when attached, mirroring :class:`~repro.net.dedup.DedupPersistence`).
    Without a store the log is *volatile*: :meth:`restart` wipes it, which
    models the pre-PR coordinator and powers the ``--no-recovery``
    ablation.

    The in-memory index is write-through: reads never touch the store, so
    ``txn_status`` answers are cheap, and the store is only consulted on
    :meth:`restart` (recovery replay).
    """

    TABLE = "_syd_txn_intents"

    def __init__(self, store=None, clock=None, metrics=None, metrics_node: str = ""):
        self.store = store
        self._clock = clock
        #: optional MetricsRegistry sink (txn.intent_writes counter)
        self._metrics = metrics
        self._metrics_node = metrics_node
        self._seq = 0
        #: txn_id -> {"begin": payload, "decision": (decision, payload) | None,
        #:            "ended": outcome | None}
        self._txns: dict[str, dict[str, Any]] = {}
        self._order: list[str] = []
        if store is not None and not store.has_table(self.TABLE):
            from repro.datastore.schema import Column, ColumnType, schema

            store.create_table(
                self.TABLE,
                schema(
                    "rec_id",
                    rec_id=ColumnType.STR,
                    txn_id=ColumnType.STR,
                    kind=ColumnType.STR,
                    decision=Column("decision", ColumnType.STR, nullable=True),
                    payload=Column("payload", ColumnType.JSON, nullable=True),
                    at=ColumnType.FLOAT,
                ),
            )
        if store is not None:
            self._reload()

    @property
    def durable(self) -> bool:
        return self.store is not None

    # -- protocol writes -----------------------------------------------------

    def begin(self, txn_id: str, payload: Any = None) -> None:
        """Durably record that ``txn_id`` is starting (before any mark)."""
        self._append(txn_id, "begin", None, payload)
        self._txns[txn_id] = {"begin": payload, "decision": None, "ended": None}
        self._order.append(txn_id)

    def decide(self, txn_id: str, decision: str, payload: Any = None) -> None:
        """Durably record the commit/abort decision (before any change)."""
        self._append(txn_id, "decide", decision, payload)
        entry = self._txns.setdefault(
            txn_id, {"begin": None, "decision": None, "ended": None}
        )
        entry["decision"] = (decision, payload)

    def end(self, txn_id: str, outcome: str) -> None:
        """Durably record that the protocol epilogue ran to completion."""
        self._append(txn_id, "end", outcome, None)
        entry = self._txns.setdefault(
            txn_id, {"begin": None, "decision": None, "ended": None}
        )
        entry["ended"] = outcome

    # -- queries -------------------------------------------------------------

    def status(self, txn_id: str) -> str:
        """The decision-correct answer for a participant's ``txn_status``
        query: ``commit`` iff a durable commit decision exists; anything
        else — aborted, unknown, or never begun — is ``abort``
        (presumed-abort)."""
        entry = self._txns.get(txn_id)
        if entry is None:
            return "abort"
        decision = entry["decision"]
        if decision is not None and decision[0] == "commit":
            return "commit"
        return "abort"

    def has_commit(self, txn_id: str) -> bool:
        entry = self._txns.get(txn_id)
        return bool(entry and entry["decision"] and entry["decision"][0] == "commit")

    def in_flight(self) -> list[tuple[str, dict[str, Any]]]:
        """Transactions with a ``begin`` but no ``end``, in begin order —
        what a restarted coordinator must resolve."""
        return [
            (txn_id, self._txns[txn_id])
            for txn_id in self._order
            if self._txns[txn_id]["ended"] is None
        ]

    def known(self, txn_id: str) -> bool:
        return txn_id in self._txns

    def __len__(self) -> int:
        return len(self._order)

    # -- lifecycle -----------------------------------------------------------

    def restart(self) -> None:
        """Crash/power-cycle: durable logs reload from the store, volatile
        logs lose everything (the ablation's failure mode)."""
        self._seq = 0
        self._txns = {}
        self._order = []
        if self.store is not None:
            self._reload()

    # -- internals -----------------------------------------------------------

    def _append(self, txn_id: str, kind: str, decision: str | None, payload: Any) -> None:
        self._seq += 1
        if self._metrics is not None:
            self._metrics.inc(self._metrics_node, "txn.intent_writes")
            self._metrics.inc(self._metrics_node, f"txn.intent_writes.{kind}")
        if self.store is not None:
            self.store.insert(
                self.TABLE,
                {
                    "rec_id": f"{self._seq:08d}",
                    "txn_id": txn_id,
                    "kind": kind,
                    "decision": decision,
                    "payload": payload,
                    "at": self._clock.now() if self._clock else 0.0,
                },
            )

    def _reload(self) -> None:
        rows = sorted(self.store.select(self.TABLE), key=lambda r: r["rec_id"])
        self._seq = int(rows[-1]["rec_id"]) if rows else 0
        self._txns = {}
        self._order = []
        for row in rows:
            txn_id, kind = row["txn_id"], row["kind"]
            if kind == "begin":
                self._txns[txn_id] = {
                    "begin": row["payload"], "decision": None, "ended": None
                }
                self._order.append(txn_id)
                continue
            entry = self._txns.setdefault(
                txn_id, {"begin": None, "decision": None, "ended": None}
            )
            if kind == "decide":
                entry["decision"] = (row["decision"], row["payload"])
            elif kind == "end":
                entry["ended"] = row["decision"]
