"""Table schemas.

In SyD every device owns an *independent* store — there is no global
schema (paper §2). Each store still declares per-table schemas so that
rows are validated at the edge, like the Oracle tables of the prototype.

Validation is compiled once per column: each :class:`Column` keeps the
exact builtin types its :class:`ColumnType` accepts (plus ``NoneType``
when nullable), so the common value costs one set lookup. Anything else
(a ``None`` that is not allowed, subclasses, JSON containers) takes the
full check, :meth:`ColumnType.accepts`, and JSON containers are walked
with an explicit stack, so nesting depth is unbounded. The accepted set
and every :class:`SchemaError` text are the same on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.util.errors import SchemaError

#: Sentinel meaning "column has no default".
_NO_DEFAULT = object()


class ColumnType(str, Enum):
    """Supported column types (a pragmatic subset of SQL types)."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    JSON = "json"   # arbitrary JSON-like value (list/dict/scalar)

    def accepts(self, value: Any) -> bool:
        """Type check a non-null Python value against this column type."""
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.STR:
            return isinstance(value, str)
        if self is ColumnType.BOOL:
            return isinstance(value, bool)
        if self is ColumnType.JSON:
            return _is_jsonish(value)
        return False  # pragma: no cover - exhaustive enum

    def coerce(self, value: Any) -> Any:
        """Parse a string representation into this type (flat-file stores)."""
        if value is None:
            return None
        if self is ColumnType.INT:
            return int(value)
        if self is ColumnType.FLOAT:
            return float(value)
        if self is ColumnType.STR:
            return str(value)
        if self is ColumnType.BOOL:
            if isinstance(value, bool):
                return value
            return str(value).lower() in ("true", "1", "yes")
        return value


_NONE = type(None)
#: exact types of the JSON leaves
_SCALARS = frozenset({str, int, float, bool, _NONE})

#: marks the end of a container's children on the JSON walk stack
_LEAVE = object()


def _is_jsonish(value: Any) -> bool:
    """True for None, bool/int/float/str and lists, tuples and str-keyed
    dicts of those (subclasses included), nested to any depth.

    One iterative walk. A container whose children are all plain
    scalars is settled in place; any other is expanded onto an explicit
    stack, followed by ``_LEAVE`` and its id, so the ids on ``path`` are
    exactly the containers enclosing the current value. A container
    that contains itself is rejected; one shared by two branches is
    walked twice and accepted.
    """
    stack = [value]
    path: set[int] = set()
    while stack:
        v = stack.pop()
        t = v.__class__
        if t in _SCALARS:
            continue
        if v is _LEAVE:
            path.discard(stack.pop())
            continue
        if t is list or t is tuple or (t is not dict and isinstance(v, (list, tuple))):
            children = v
        elif isinstance(v, dict):
            for k in v:
                if k.__class__ is not str and not isinstance(k, str):
                    return False
            children = v.values()
        elif isinstance(v, (bool, int, float, str)):
            continue
        else:
            return False
        for child in children:
            if child.__class__ not in _SCALARS:
                break
        else:
            continue
        key = id(v)
        if key in path:
            return False
        path.add(key)
        stack.append(key)
        stack.append(_LEAVE)
        stack.extend(children)
    return True


_BUILTINS = {
    ColumnType.INT: {int},
    ColumnType.FLOAT: {int, float},
    ColumnType.STR: {str},
    ColumnType.BOOL: {bool},
    ColumnType.JSON: {bool, int, float, str},
}
#: (type, nullable) -> exact builtin types accepted without a closer look
_EXACT: dict[tuple[ColumnType, bool], frozenset[type]] = {
    (ctype, nullable): frozenset(types | {_NONE} if nullable else types)
    for ctype, types in _BUILTINS.items()
    for nullable in (False, True)
}
#: type -> its full check (``ColumnType.accepts``; the JSON walk directly)
_ACCEPTS: dict[ColumnType, Any] = {ctype: ctype.accepts for ctype in ColumnType}
_ACCEPTS[ColumnType.JSON] = _is_jsonish


def _show(value: Any) -> str:
    """``repr(value)`` for an error message, even when nesting defeats repr."""
    try:
        return repr(value)
    except RecursionError:
        return f"<{type(value).__name__} nested too deeply to show>"


@dataclass(frozen=True)
class Column:
    """One column definition.

    Attributes:
        name: column name (unique within the table).
        ctype: value type.
        nullable: whether None is a legal value.
        default: value used when an insert omits the column. ``_NO_DEFAULT``
            means the column is required on insert (unless nullable, in
            which case it defaults to None).
    """

    name: str
    ctype: ColumnType
    nullable: bool = False
    default: Any = _NO_DEFAULT

    #: exact types that fit without a closer look (None too, if nullable)
    exact: frozenset = field(init=False, repr=False, compare=False)
    #: the full type check for everything else
    accepts: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "exact", _EXACT[self.ctype, bool(self.nullable)])
        object.__setattr__(self, "accepts", _ACCEPTS[self.ctype])

    @property
    def has_default(self) -> bool:
        return self.default is not _NO_DEFAULT

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this column."""
        if value.__class__ in self.exact:
            return
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if not self.accepts(value):
            raise SchemaError(
                f"column {self.name!r} expects {self.ctype.value}, got {_show(value)}"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered set of columns plus the primary-key column name."""

    columns: tuple[Column, ...]
    primary_key: str

    _by_name: dict = field(default=None, repr=False, compare=False)
    #: per column, in order: (name, column, exact types, full type check,
    #: insert fill value)
    _plan: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        if self.primary_key not in names:
            raise SchemaError(f"primary key {self.primary_key!r} is not a column")
        pk_col = next(c for c in self.columns if c.name == self.primary_key)
        if pk_col.nullable:
            raise SchemaError("primary key column cannot be nullable")
        object.__setattr__(self, "_by_name", {c.name: c for c in self.columns})
        object.__setattr__(self, "_plan", tuple(
            (
                c.name,
                c,
                c.exact,
                c.accepts,
                c.default if c.has_default else None if c.nullable else _NO_DEFAULT,
            )
            for c in self.columns
        ))

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """The column called ``name`` (raises SchemaError if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def normalize_insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate an insert payload and fill defaults; returns a new dict."""
        if not row.keys() <= self._by_name.keys():
            unknown = set(row) - set(self._by_name)
            raise SchemaError(f"unknown columns {sorted(unknown)}")
        out: dict[str, Any] = {}
        for name, col, exact, accepts, fill in self._plan:
            if name in row:
                value = row[name]
            elif fill is _NO_DEFAULT:
                raise SchemaError(f"missing required column {name!r}")
            else:
                value = fill
            if value.__class__ not in exact and (value is None or not accepts(value)):
                col.validate(value)  # raises with the column's message
            out[name] = value
        return out

    def validate_update(self, changes: dict[str, Any]) -> None:
        """Validate an update payload (no defaults involved)."""
        by_name = self._by_name
        for name, value in changes.items():
            col = by_name.get(name)
            if col is None:
                raise SchemaError(f"no column {name!r}")
            if value.__class__ not in col.exact and (value is None or not col.accepts(value)):
                col.validate(value)  # raises with the column's message
        if self.primary_key in changes:
            raise SchemaError("updating the primary key is not supported")


def schema(primary_key: str, **columns: ColumnType | Column) -> Schema:
    """Convenience constructor: ``schema("id", id=INT, name=STR, ...)``.

    Values may be bare :class:`ColumnType` (non-nullable, no default) or
    full :class:`Column` instances (whose ``name`` is taken from the key).
    """
    cols = []
    for name, spec in columns.items():
        if isinstance(spec, Column):
            cols.append(Column(name, spec.ctype, spec.nullable, spec.default))
        else:
            cols.append(Column(name, spec))
    return Schema(tuple(cols), primary_key)
