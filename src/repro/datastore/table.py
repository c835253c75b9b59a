"""In-memory table with primary key and secondary hash indexes.

This is the storage engine under :class:`repro.datastore.store.RelationalStore`.
Rows are plain dicts; the table returns *copies* so callers can never
corrupt storage by mutating a result. A primary-key equality goes
straight to its row; equality predicates on indexed columns are served
from the index (see ``equality_bindings``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Optional

from repro.datastore.predicate import Cmp, Predicate, equality_bindings
from repro.datastore.schema import Schema
from repro.net.message import estimate_size
from repro.util.errors import DuplicateKeyError, QueryError, SchemaError


class Table:
    """One table: schema, rows keyed by primary key, secondary indexes."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._pk = schema.primary_key
        self._rows: dict[Any, dict[str, Any]] = {}
        # column -> value -> set of pks
        self._indexes: dict[str, dict[Any, set[Any]]] = {}

    # -- indexes -------------------------------------------------------------

    def create_index(self, column: str) -> None:
        """Build (or rebuild) a hash index on ``column``."""
        self.schema.column(column)  # validates existence
        index: dict[Any, set[Any]] = {}
        for pk, row in self._rows.items():
            index.setdefault(_key(row[column]), set()).add(pk)
        self._indexes[column] = index

    def indexed_columns(self) -> list[str]:
        return sorted(self._indexes)

    def _index_add(self, row: dict[str, Any]) -> None:
        pk = row[self._pk]
        for col, index in self._indexes.items():
            index.setdefault(_key(row[col]), set()).add(pk)

    def _index_remove(self, row: dict[str, Any]) -> None:
        pk = row[self._pk]
        for col, index in self._indexes.items():
            bucket = index.get(_key(row[col]))
            if bucket is not None:
                bucket.discard(pk)
                if not bucket:
                    del index[_key(row[col])]

    # -- mutation --------------------------------------------------------------

    def insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate + store a new row; returns a copy of the stored row."""
        stored = self.schema.normalize_insert(row)
        pk = stored[self._pk]
        if pk in self._rows:
            raise DuplicateKeyError(f"{self.name}: duplicate primary key {pk!r}")
        self._rows[pk] = stored
        self._index_add(stored)
        return dict(stored)

    def put(
        self, row: dict[str, Any]
    ) -> tuple[Optional[dict[str, Any]], dict[str, Any]]:
        """Store ``row`` (validated as an insert), replacing the row with its
        primary key if there is one; returns ``(old or None, new copy)``."""
        stored = self.schema.normalize_insert(row)
        pk = stored[self._pk]
        old = self._rows.get(pk)
        if old is not None:
            self._index_remove(old)
        self._rows[pk] = stored
        self._index_add(stored)
        return old, dict(stored)

    def update_rows(
        self, predicate: Predicate | None, changes: dict[str, Any]
    ) -> list[tuple[dict[str, Any], dict[str, Any]]]:
        """Apply ``changes`` to matching rows; return [(old, new), ...] copies."""
        if not changes:
            return []
        self.schema.validate_update(changes)
        results = []
        for pk in self._candidate_pks(predicate):
            row = self._rows[pk]
            if predicate is not None and not predicate.matches(row):
                continue
            old = dict(row)
            self._index_remove(row)
            row.update(changes)
            self._index_add(row)
            results.append((old, dict(row)))
        return results

    def delete_rows(self, predicate: Predicate | None) -> list[dict[str, Any]]:
        """Remove matching rows; return copies of the removed rows."""
        removed = []
        for pk in self._candidate_pks(predicate):
            row = self._rows[pk]
            if predicate is not None and not predicate.matches(row):
                continue
            self._index_remove(row)
            removed.append(self._rows.pop(pk))
        return removed

    # -- reads -----------------------------------------------------------------

    def get(self, pk: Any) -> Optional[dict[str, Any]]:
        """Primary-key lookup; returns a copy or None."""
        row = self._rows.get(pk)
        return dict(row) if row is not None else None

    def select(
        self,
        predicate: Predicate | None = None,
        *,
        columns: Iterable[str] | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Filter, project, sort and truncate; returns row copies."""
        if predicate is None:
            rows = [dict(row) for row in self._rows.values()]
        else:
            matches, stored = predicate.matches, self._rows
            rows = [
                dict(row)
                for row in map(stored.__getitem__, self._candidate_pks(predicate))
                if matches(row)
            ]
        if order_by is not None:
            if not self.schema.has_column(order_by):
                raise QueryError(f"{self.name}: cannot order by unknown column {order_by!r}")
            _sort_rows(rows, order_by, descending)
        else:
            # Deterministic order: by primary key.
            _sort_rows(rows, self._pk, False)
        if limit is not None:
            rows = rows[: max(limit, 0)]
        if columns is not None:
            cols = list(columns)
            for c in cols:
                if not self.schema.has_column(c):
                    raise SchemaError(f"{self.name}: unknown column {c!r} in projection")
            rows = [{c: r[c] for c in cols} for r in rows]
        return rows

    def count(self, predicate: Predicate | None = None) -> int:
        if predicate is None:
            return len(self._rows)
        return sum(
            1 for pk in self._candidate_pks(predicate) if predicate.matches(self._rows[pk])
        )

    def __len__(self) -> int:
        return len(self._rows)

    def all_pks(self) -> list[Any]:
        return list(self._rows)

    def storage_bytes(self) -> int:
        """Approximate bytes held by row data (for experiment E8)."""
        return sum(estimate_size(row) for row in self._rows.values())

    # -- planning ------------------------------------------------------------

    def _candidate_pks(self, predicate: Predicate | None) -> Iterable[Any]:
        """Narrow the scan using pk/secondary-index equality terms.

        Always a fresh sequence, so callers may mutate rows while they
        iterate it. A lone primary-key equality skips the predicate walk.
        """
        if predicate is None:
            return list(self._rows)
        pk_col = self._pk
        if predicate.__class__ is Cmp and predicate.op == "=" and predicate.column == pk_col:
            pk = predicate.value
            return (pk,) if pk in self._rows else ()
        bindings = equality_bindings(predicate)
        if pk_col in bindings:
            pk = bindings[pk_col]
            return [pk] if pk in self._rows else []
        for col, value in bindings.items():
            if col in self._indexes:
                return list(self._indexes[col].get(_key(value), ()))
        return list(self._rows)


def _key(value: Any) -> Any:
    """Index key for a column value (lists/dicts hashed by repr)."""
    if isinstance(value, (list, dict)):
        return repr(value)
    return value


_STRS = frozenset({str})
_NUMBERS = frozenset({int, float})


def _sort_rows(rows: list[dict[str, Any]], column: str, descending: bool) -> None:
    """Sort full rows by ``column`` in :func:`_sort_key` order, in place.

    When every value is a str, or every value an int or float, the
    values' own order is that order, so they serve as keys directly.
    """
    kinds = {r[column].__class__ for r in rows}
    if kinds <= _STRS or kinds <= _NUMBERS:
        rows.sort(key=itemgetter(column), reverse=descending)
    else:
        rows.sort(key=lambda r: _sort_key(r[column]), reverse=descending)


def _sort_key(value: Any) -> tuple:
    """Total order across mixed types: None < bool < numbers < str < other."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    return (4, repr(value))
