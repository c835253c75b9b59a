"""List-repository data store.

The third heterogeneity point from paper §2 ("a list repository"): each
table is just an ordered Python list of row dicts, scanned linearly. It
shares the mutation/trigger contract of :class:`DataStore` but keeps the
implementation as naive as a PDA to-do-list backend would be.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.datastore.predicate import ALWAYS, Predicate
from repro.datastore.schema import Schema
from repro.datastore.store import DataStore
from repro.datastore.table import _sort_key
from repro.datastore.triggers import TriggerEvent
from repro.net.message import estimate_size
from repro.util.errors import (
    DuplicateKeyError,
    QueryError,
    SchemaError,
    StoreError,
    UnknownTableError,
)


class ListStore(DataStore):
    """Tables as plain lists of dicts; linear scans everywhere."""

    kind = "list"

    def __init__(self, name: str):
        super().__init__(name)
        self._lists: dict[str, tuple[Schema, list[dict[str, Any]]]] = {}

    # -- schema ---------------------------------------------------------------

    def create_table(self, table: str, schema: Schema) -> None:
        if table in self._lists:
            raise StoreError(f"table {table!r} already exists")
        self._stamp(table)
        self._lists[table] = (schema, [])

    def drop_table(self, table: str) -> None:
        self._require(table)
        self._stamp(table)
        del self._lists[table]

    def has_table(self, table: str) -> bool:
        return table in self._lists

    def table_names(self) -> list[str]:
        return sorted(self._lists)

    def schema(self, table: str) -> Schema:
        return self._require(table)[0]

    # -- data -----------------------------------------------------------------

    def insert(self, table: str, row: dict[str, Any]) -> dict[str, Any]:
        schema, rows = self._require(table)
        self._stamp(table)
        stored = schema.normalize_insert(row)
        pk = stored[schema.primary_key]
        if any(r[schema.primary_key] == pk for r in rows):
            raise DuplicateKeyError(f"{table}: duplicate primary key {pk!r}")
        rows.append(stored)
        self.triggers.fire(TriggerEvent.INSERT, table, None, dict(stored))
        return dict(stored)

    def get(self, table: str, pk: Any) -> Optional[dict[str, Any]]:
        schema, rows = self._require(table)
        for row in rows:
            if row[schema.primary_key] == pk:
                return dict(row)
        return None

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
        schema, rows = self._require(table)
        pred = predicate or ALWAYS
        out = [dict(r) for r in rows if pred.matches(r)]
        sort_col = order_by if order_by is not None else schema.primary_key
        if not schema.has_column(sort_col):
            raise QueryError(f"{table}: cannot order by unknown column {sort_col!r}")
        out.sort(key=lambda r: _sort_key(r.get(sort_col)), reverse=descending)
        if limit is not None:
            out = out[: max(limit, 0)]
        if columns is not None:
            cols = list(columns)
            for c in cols:
                if not schema.has_column(c):
                    raise SchemaError(f"{table}: unknown column {c!r} in projection")
            out = [{c: r[c] for c in cols} for r in out]
        return out

    def update(self, table: str, predicate: Predicate | None, changes: dict[str, Any]) -> int:
        schema, rows = self._require(table)
        self._stamp(table)
        if not changes:
            return 0
        schema.validate_update(changes)
        pred = predicate or ALWAYS
        fired: list[tuple[dict, dict]] = []
        for row in rows:
            if not pred.matches(row):
                continue
            old = dict(row)
            row.update(changes)
            for col in schema.columns:
                col.validate(row[col.name])
            fired.append((old, dict(row)))
        for old, new in fired:
            self.triggers.fire(TriggerEvent.UPDATE, table, old, new)
        return len(fired)

    def delete(self, table: str, predicate: Predicate | None) -> int:
        schema, rows = self._require(table)
        self._stamp(table)
        pred = predicate or ALWAYS
        removed = [r for r in rows if pred.matches(r)]
        self._lists[table] = (schema, [r for r in rows if not pred.matches(r)])
        for row in removed:
            self.triggers.fire(TriggerEvent.DELETE, table, dict(row), None)
        return len(removed)

    def count(self, table: str, predicate: Predicate | None = None) -> int:
        _, rows = self._require(table)
        pred = predicate or ALWAYS
        return sum(1 for r in rows if pred.matches(r))

    def storage_bytes(self) -> int:
        return sum(
            sum(estimate_size(r) for r in rows) for _, rows in self._lists.values()
        )

    # -- internal ------------------------------------------------------------

    def _require(self, table: str) -> tuple[Schema, list[dict[str, Any]]]:
        try:
            return self._lists[table]
        except KeyError:
            raise UnknownTableError(f"{self.name}: no table {table!r}") from None
