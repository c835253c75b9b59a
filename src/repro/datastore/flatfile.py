"""Flat-file data store.

Paper §2: a SyD data store "may be an ad-hoc data store such as a flat
file, an EXCEL worksheet or a list repository". This store keeps each
table as lines of tab-separated text (header line = column names + types)
and re-parses on every operation — deliberately primitive, with no
indexes, to be *genuinely heterogeneous* from :class:`RelationalStore`.
The calendar application must run unchanged on it (asserted by
``tests/integration/test_heterogeneity.py``).

``dump()``/``load()`` expose the textual representation so tests can
round-trip it through a real file.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.datastore.predicate import ALWAYS, Predicate
from repro.datastore.schema import Column, ColumnType, Schema
from repro.datastore.store import DataStore
from repro.datastore.table import _sort_key
from repro.datastore.triggers import TriggerEvent
from repro.util.errors import (
    DuplicateKeyError,
    QueryError,
    SchemaError,
    StoreError,
    UnknownTableError,
)

_NULL = "\\N"  # textual null marker, à la classic unix dump formats


def _encode_cell(value: Any) -> str:
    if value is None:
        return _NULL
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        import json

        return json.dumps(value, separators=(",", ":"))
    text = str(value)
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _decode_cell(text: str, ctype: ColumnType) -> Any:
    if text == _NULL:
        return None
    if ctype is ColumnType.JSON:
        import json

        return json.loads(text)
    unescaped = (
        text.replace("\\n", "\n").replace("\\t", "\t").replace("\\\\", "\\")
    )
    return ctype.coerce(unescaped)


class FlatFileStore(DataStore):
    """Tables as tab-separated text; every operation parses the text."""

    kind = "flatfile"

    def __init__(self, name: str):
        super().__init__(name)
        # table -> (schema, list of encoded lines)
        self._files: dict[str, tuple[Schema, list[str]]] = {}

    # -- schema ---------------------------------------------------------------

    def create_table(self, table: str, schema: Schema) -> None:
        if table in self._files:
            raise StoreError(f"table {table!r} already exists")
        self._stamp(table)
        self._files[table] = (schema, [])

    def drop_table(self, table: str) -> None:
        self._require(table)
        self._stamp(table)
        del self._files[table]

    def has_table(self, table: str) -> bool:
        return table in self._files

    def table_names(self) -> list[str]:
        return sorted(self._files)

    def schema(self, table: str) -> Schema:
        return self._require(table)[0]

    # -- line <-> row ------------------------------------------------------------

    def _to_line(self, schema: Schema, row: dict[str, Any]) -> str:
        return "\t".join(_encode_cell(row[c.name]) for c in schema.columns)

    def _to_row(self, schema: Schema, line: str) -> dict[str, Any]:
        cells = line.split("\t")
        if len(cells) != len(schema.columns):
            raise StoreError(f"corrupt line: {line!r}")
        return {
            col.name: _decode_cell(cell, col.ctype)
            for col, cell in zip(schema.columns, cells)
        }

    # -- data -----------------------------------------------------------------

    def insert(self, table: str, row: dict[str, Any]) -> dict[str, Any]:
        schema, lines = self._require(table)
        self._stamp(table)
        stored = schema.normalize_insert(row)
        pk = stored[schema.primary_key]
        for line in lines:
            if self._to_row(schema, line)[schema.primary_key] == pk:
                raise DuplicateKeyError(f"{table}: duplicate primary key {pk!r}")
        lines.append(self._to_line(schema, stored))
        self.triggers.fire(TriggerEvent.INSERT, table, None, dict(stored))
        return stored

    def get(self, table: str, pk: Any) -> Optional[dict[str, Any]]:
        schema, lines = self._require(table)
        for line in lines:
            row = self._to_row(schema, line)
            if row[schema.primary_key] == pk:
                return row
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
        schema, lines = self._require(table)
        pred = predicate or ALWAYS
        rows = [r for r in (self._to_row(schema, ln) for ln in lines) if pred.matches(r)]
        sort_col = order_by if order_by is not None else schema.primary_key
        if not schema.has_column(sort_col):
            raise QueryError(f"{table}: cannot order by unknown column {sort_col!r}")
        rows.sort(key=lambda r: _sort_key(r.get(sort_col)), reverse=descending)
        if limit is not None:
            rows = rows[: max(limit, 0)]
        if columns is not None:
            cols = list(columns)
            for c in cols:
                if not schema.has_column(c):
                    raise SchemaError(f"{table}: unknown column {c!r} in projection")
            rows = [{c: r[c] for c in cols} for r in rows]
        return rows

    def update(self, table: str, predicate: Predicate | None, changes: dict[str, Any]) -> int:
        schema, lines = self._require(table)
        self._stamp(table)
        if not changes:
            return 0
        schema.validate_update(changes)
        pred = predicate or ALWAYS
        fired: list[tuple[dict, dict]] = []
        for i, line in enumerate(lines):
            row = self._to_row(schema, line)
            if not pred.matches(row):
                continue
            old = dict(row)
            row.update(changes)
            for col in schema.columns:
                col.validate(row[col.name])
            lines[i] = self._to_line(schema, row)
            fired.append((old, row))
        for old, new in fired:
            self.triggers.fire(TriggerEvent.UPDATE, table, old, new)
        return len(fired)

    def delete(self, table: str, predicate: Predicate | None) -> int:
        schema, lines = self._require(table)
        self._stamp(table)
        pred = predicate or ALWAYS
        kept, removed = [], []
        for line in lines:
            row = self._to_row(schema, line)
            (removed if pred.matches(row) else kept).append((line, row))
        self._files[table] = (schema, [ln for ln, _ in kept])
        for _, row in removed:
            self.triggers.fire(TriggerEvent.DELETE, table, row, None)
        return len(removed)

    def count(self, table: str, predicate: Predicate | None = None) -> int:
        schema, lines = self._require(table)
        pred = predicate or ALWAYS
        return sum(1 for ln in lines if pred.matches(self._to_row(schema, ln)))

    def storage_bytes(self) -> int:
        return sum(
            sum(len(ln.encode("utf-8")) + 1 for ln in lines)
            for _, lines in self._files.values()
        )

    # -- text round-trip -----------------------------------------------------

    def dump(self, table: str) -> str:
        """Full textual form: header line (name:type pairs) + data lines."""
        schema, lines = self._require(table)
        header = "\t".join(
            f"{c.name}:{c.ctype.value}{':null' if c.nullable else ''}"
            for c in schema.columns
        )
        return "\n".join([f"#pk={schema.primary_key}", header, *lines])

    def load(self, table: str, text: str) -> None:
        """Recreate ``table`` from a ``dump()`` string."""
        lines = text.split("\n")
        if len(lines) < 2 or not lines[0].startswith("#pk="):
            raise StoreError("malformed dump: missing header")
        pk = lines[0][4:]
        cols = []
        for part in lines[1].split("\t"):
            pieces = part.split(":")
            cols.append(
                Column(pieces[0], ColumnType(pieces[1]), nullable="null" in pieces[2:])
            )
        schema = Schema(tuple(cols), pk)
        self._stamp(table)
        self._files[table] = (schema, [ln for ln in lines[2:] if ln])

    # -- internal ------------------------------------------------------------

    def _require(self, table: str) -> tuple[Schema, list[str]]:
        try:
            return self._files[table]
        except KeyError:
            raise UnknownTableError(f"{self.name}: no table {table!r}") from None
