"""Predicate AST for store queries.

A small, composable filter language evaluated against row dicts. The
fluent entry point is :func:`where`::

    from repro.datastore.predicate import where

    pred = (where("status") == "free") & (where("hour") >= 9)
    rows = store.select("slots", pred)

Every predicate answers :meth:`Predicate.matches` for one row and
:meth:`Predicate.columns` for the planner.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from typing import Any, Iterable

from repro.util.errors import QueryError


class Predicate(ABC):
    """A boolean filter over a row dict."""

    @abstractmethod
    def matches(self, row: dict[str, Any]) -> bool:
        """True when ``row`` satisfies the predicate."""

    @abstractmethod
    def columns(self) -> set[str]:
        """Column names the predicate references (for index planning)."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate):
    """Matches every row (the implicit WHERE of a bare select)."""

    def matches(self, row: dict[str, Any]) -> bool:
        return True

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return "TRUE"


ALWAYS = TruePredicate()

def _ordered(op):
    """Ordering comparison that is false for NULLs and incomparable
    types (SQL-style three-valued logic collapsed to False)."""

    def compare(a, b):
        if a is None or b is None:
            return False
        try:
            return op(a, b)
        except TypeError:
            return False

    return compare


_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": _ordered(lambda a, b: a < b),
    "<=": _ordered(lambda a, b: a <= b),
    ">": _ordered(lambda a, b: a > b),
    ">=": _ordered(lambda a, b: a >= b),
}


class Cmp(Predicate):
    """``column <op> literal`` comparison.

    SQL-style null semantics for ordering operators: comparisons against
    None are false. Equality treats None as a plain value (use
    :class:`IsNull` for explicit null tests).
    """

    def __init__(self, column: str, op: str, value: Any):
        if op not in _OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.column = column
        self.op = op
        self.value = value

    def matches(self, row: dict[str, Any]) -> bool:
        return _OPS[self.op](row.get(self.column), self.value)

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


class In(Predicate):
    """``column IN (v1, v2, ...)``."""

    def __init__(self, column: str, values: Iterable[Any]):
        self.column = column
        self.values = frozenset(values)

    def matches(self, row: dict[str, Any]) -> bool:
        return row.get(self.column) in self.values

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.column} IN {sorted(map(repr, self.values))})"


class Like(Predicate):
    """``column LIKE pattern`` with SQL ``%`` and ``_`` wildcards."""

    def __init__(self, column: str, pattern: str):
        self.column = column
        self.pattern = pattern
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._re = re.compile(f"^{regex}$", re.DOTALL)

    def matches(self, row: dict[str, Any]) -> bool:
        value = row.get(self.column)
        return isinstance(value, str) and bool(self._re.match(value))

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.column} LIKE {self.pattern!r})"


class IsNull(Predicate):
    """``column IS NULL`` (negate for IS NOT NULL)."""

    def __init__(self, column: str):
        self.column = column

    def matches(self, row: dict[str, Any]) -> bool:
        return row.get(self.column) is None

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        return f"({self.column} IS NULL)"


class And(Predicate):
    """Conjunction of two predicates."""

    def __init__(self, left: Predicate, right: Predicate):
        self.left, self.right = left, right

    def matches(self, row: dict[str, Any]) -> bool:
        return self.left.matches(row) and self.right.matches(row)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(Predicate):
    """Disjunction of two predicates."""

    def __init__(self, left: Predicate, right: Predicate):
        self.left, self.right = left, right

    def matches(self, row: dict[str, Any]) -> bool:
        return self.left.matches(row) or self.right.matches(row)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class Not(Predicate):
    """Negation."""

    def __init__(self, inner: Predicate):
        self.inner = inner

    def matches(self, row: dict[str, Any]) -> bool:
        return not self.inner.matches(row)

    def columns(self) -> set[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.inner!r})"


class ColumnRef:
    """Fluent builder: ``where("x") == 5`` produces a :class:`Cmp`."""

    def __init__(self, column: str):
        self._column = column

    def __eq__(self, value: Any) -> Cmp:  # type: ignore[override]
        return Cmp(self._column, "=", value)

    def __ne__(self, value: Any) -> Cmp:  # type: ignore[override]
        return Cmp(self._column, "!=", value)

    def __lt__(self, value: Any) -> Cmp:
        return Cmp(self._column, "<", value)

    def __le__(self, value: Any) -> Cmp:
        return Cmp(self._column, "<=", value)

    def __gt__(self, value: Any) -> Cmp:
        return Cmp(self._column, ">", value)

    def __ge__(self, value: Any) -> Cmp:
        return Cmp(self._column, ">=", value)

    def isin(self, values: Iterable[Any]) -> In:
        return In(self._column, values)

    def like(self, pattern: str) -> Like:
        return Like(self._column, pattern)

    def is_null(self) -> IsNull:
        return IsNull(self._column)

    __hash__ = None  # type: ignore[assignment] - builders are not hashable


def where(column: str) -> ColumnRef:
    """Start building a predicate on ``column``."""
    return ColumnRef(column)


def equality_bindings(pred: Predicate) -> dict[str, Any]:
    """Extract ``column -> value`` for top-level AND-ed equality terms.

    Used by the table layer to route queries through secondary indexes.
    Only conjunctive equality terms are extracted; anything under OR/NOT
    is ignored (correctness is preserved because the full predicate is
    still applied to candidate rows).
    """
    out: dict[str, Any] = {}

    def walk(p: Predicate) -> None:
        if isinstance(p, And):
            walk(p.left)
            walk(p.right)
        elif isinstance(p, Cmp) and p.op == "=":
            out.setdefault(p.column, p.value)

    walk(pred)
    return out
