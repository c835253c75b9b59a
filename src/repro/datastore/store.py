"""The DataStore interface and its relational implementation.

SyD's premise (paper §2): a device's data may live in "a traditional
database ... or an ad-hoc data store such as a flat file ... or a list
repository". Everything above the store — device objects, links, the
calendar — talks to this one interface, so heterogeneity tests can swap
:class:`RelationalStore` for the flat-file/list variants and the
application must keep working.

All implementations fire row triggers (:mod:`repro.datastore.triggers`)
*after* each successful mutation, which is how the prototype's
Oracle-trigger event propagation is modeled.

Every mutating verb also stamps the table's :meth:`DataStore.version`
on entry, before any row changes and before any trigger fires, so a
reader can cache a view derived from a table and rebuild it only when
the version moves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Optional

from repro.datastore.predicate import Cmp, Predicate
from repro.datastore.schema import Schema
from repro.datastore.table import Table
from repro.datastore.triggers import RowTrigger, TriggerEvent, TriggerManager
from repro.util.errors import StoreError, UnknownTableError, UnsupportedOperationError


class DataStore(ABC):
    """Uniform store API (see module docstring).

    Concrete subclasses: :class:`RelationalStore`,
    :class:`repro.datastore.flatfile.FlatFileStore`,
    :class:`repro.datastore.liststore.ListStore`.
    """

    #: short kind tag used in directory listings ("relational", ...)
    kind: str = "abstract"

    def __init__(self, name: str):
        self.name = name
        self.triggers = TriggerManager()
        self._clock = 0
        self._versions: dict[str, int] = {}

    # -- versions ---------------------------------------------------------------

    def version(self, table: str) -> int:
        """Stamp of the last mutation to ``table`` (0 if never touched).

        Stamps come from one store-wide counter, so they only grow and a
        dropped-then-recreated table never repeats an earlier stamp.
        """
        return self._versions.get(table, 0)

    def _stamp(self, table: str) -> None:
        """Move ``table``'s version; mutating verbs call it on entry."""
        self._clock += 1
        self._versions[table] = self._clock

    # -- schema ---------------------------------------------------------------

    @abstractmethod
    def create_table(self, table: str, schema: Schema) -> None:
        """Create an empty table. Raises on duplicates."""

    @abstractmethod
    def drop_table(self, table: str) -> None:
        """Remove a table and its rows."""

    @abstractmethod
    def has_table(self, table: str) -> bool:
        """True when ``table`` exists."""

    @abstractmethod
    def table_names(self) -> list[str]:
        """Sorted table names."""

    @abstractmethod
    def schema(self, table: str) -> Schema:
        """Schema of ``table``."""

    # -- data -----------------------------------------------------------------

    @abstractmethod
    def insert(self, table: str, row: dict[str, Any]) -> dict[str, Any]:
        """Insert; returns the stored row (defaults applied)."""

    def put(self, table: str, row: dict[str, Any]) -> None:
        """Insert ``row``, or replace the row with the same primary key.

        ``row`` is a full insert payload, validated and defaulted as for
        :meth:`insert`, so a replace leaves exactly that row. Composed of
        :meth:`get`, :meth:`update` and :meth:`insert`: one version stamp
        and one INSERT or UPDATE(old, new) trigger, as the update-or-insert
        it spells.
        """
        schema = self.schema(table)
        stored = schema.normalize_insert(row)
        pk_col = schema.primary_key
        pk = stored[pk_col]
        if self.get(table, pk) is None:
            self.insert(table, stored)
        else:
            del stored[pk_col]
            self.update(table, Cmp(pk_col, "=", pk), stored)

    @abstractmethod
    def get(self, table: str, pk: Any) -> Optional[dict[str, Any]]:
        """Primary-key lookup; None when absent."""

    @abstractmethod
    def select(
        self,
        table: str,
        predicate: Predicate | None = None,
        *,
        columns: Iterable[str] | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Filter/project/sort/limit; returns row copies."""

    @abstractmethod
    def update(self, table: str, predicate: Predicate | None, changes: dict[str, Any]) -> int:
        """Update matching rows; returns count changed."""

    @abstractmethod
    def delete(self, table: str, predicate: Predicate | None) -> int:
        """Delete matching rows; returns count removed."""

    @abstractmethod
    def count(self, table: str, predicate: Predicate | None = None) -> int:
        """Number of matching rows."""

    @abstractmethod
    def storage_bytes(self) -> int:
        """Approximate bytes of row data held (experiment E8 metric)."""

    # -- extras ------------------------------------------------------------------

    def create_index(self, table: str, column: str) -> None:
        """Secondary index (optional; default: unsupported)."""
        raise UnsupportedOperationError(f"{self.kind} store does not support indexes")

    def add_trigger(self, trigger: RowTrigger) -> Callable[[], None]:
        """Attach a row trigger; returns a removal callable."""
        return self.triggers.add(trigger)


class RelationalStore(DataStore):
    """Dict-backed relational store with indexes and triggers.

    The stand-in for the prototype's per-device Oracle databases.
    """

    kind = "relational"

    def __init__(self, name: str):
        super().__init__(name)
        self._tables: dict[str, Table] = {}

    # -- schema ---------------------------------------------------------------

    def create_table(self, table: str, schema: Schema) -> None:
        if table in self._tables:
            raise StoreError(f"table {table!r} already exists")
        self._stamp(table)
        self._tables[table] = Table(table, schema)

    def drop_table(self, table: str) -> None:
        self._require(table)
        self._stamp(table)
        del self._tables[table]

    def has_table(self, table: str) -> bool:
        return table in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def schema(self, table: str) -> Schema:
        return self._require(table).schema

    def create_index(self, table: str, column: str) -> None:
        self._require(table).create_index(column)

    # -- data -----------------------------------------------------------------

    def insert(self, table: str, row: dict[str, Any]) -> dict[str, Any]:
        tbl = self._require(table)
        self._stamp(table)
        stored = tbl.insert(row)
        self.triggers.fire(TriggerEvent.INSERT, table, None, stored)
        return stored

    def put(self, table: str, row: dict[str, Any]) -> None:
        """One keyed replace (see :meth:`DataStore.put`)."""
        tbl = self._require(table)
        self._stamp(table)
        old, new = tbl.put(row)
        if old is None:
            self.triggers.fire(TriggerEvent.INSERT, table, None, new)
        else:
            self.triggers.fire(TriggerEvent.UPDATE, table, old, new)

    def get(self, table: str, pk: Any) -> Optional[dict[str, Any]]:
        return self._require(table).get(pk)

    def select(
        self,
        table: str,
        predicate: Predicate | None = None,
        *,
        columns: Iterable[str] | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        return self._require(table).select(
            predicate,
            columns=columns,
            order_by=order_by,
            descending=descending,
            limit=limit,
        )

    def update(self, table: str, predicate: Predicate | None, changes: dict[str, Any]) -> int:
        tbl = self._require(table)
        self._stamp(table)
        pairs = tbl.update_rows(predicate, changes)
        for old, new in pairs:
            self.triggers.fire(TriggerEvent.UPDATE, table, old, new)
        return len(pairs)

    def delete(self, table: str, predicate: Predicate | None) -> int:
        tbl = self._require(table)
        self._stamp(table)
        removed = tbl.delete_rows(predicate)
        for row in removed:
            self.triggers.fire(TriggerEvent.DELETE, table, row, None)
        return len(removed)

    def count(self, table: str, predicate: Predicate | None = None) -> int:
        return self._require(table).count(predicate)

    def storage_bytes(self) -> int:
        return sum(t.storage_bytes() for t in self._tables.values())

    # -- internal ------------------------------------------------------------

    def _require(self, table: str) -> Table:
        try:
            return self._tables[table]
        except KeyError:
            raise UnknownTableError(f"{self.name}: no table {table!r}") from None
