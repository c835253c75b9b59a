"""Row-level ECA triggers.

The prototype used Oracle row triggers + Java Stored Procedures to react
to calendar changes (paper §5.3). This module is the store-side analogue:
a trigger names a table, a set of events, an optional condition predicate
on the *new* row (old row for deletes), and an action callback receiving a
:class:`TriggerContext`.

The paper also proposes *middleware triggers* as future work ("our SyD
model does not allow any dependencies on a specific database");
:mod:`repro.kernel.events` implements that variant, and benchmark E6
compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional

from repro.datastore.predicate import Predicate
from repro.util.errors import StoreError

#: Guard against trigger actions that recursively fire triggers forever.
MAX_TRIGGER_DEPTH = 16


class TriggerEvent(str, Enum):
    """Row mutation kinds a trigger can react to."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class TriggerContext(NamedTuple):
    """What a trigger action sees: the mutation that just happened.

    Immutable, and built once per fired mutation: every trigger that
    reacts to the mutation receives the same context.
    """

    event: TriggerEvent
    table: str
    old: Optional[dict[str, Any]]   # None for inserts
    new: Optional[dict[str, Any]]   # None for deletes

    def changed(self, column: str) -> bool:
        """True when ``column`` differs between old and new row."""
        old_v = self.old.get(column) if self.old else None
        new_v = self.new.get(column) if self.new else None
        return old_v != new_v


TriggerAction = Callable[[TriggerContext], None]


@dataclass
class RowTrigger:
    """A named ECA rule attached to one table.

    Attributes:
        name: unique trigger name (per manager).
        table: table the trigger watches.
        events: which mutations fire it.
        action: callback run synchronously after the mutation.
        condition: optional predicate; for INSERT/UPDATE it is evaluated
            against the new row, for DELETE against the old row.
    """

    name: str
    table: str
    events: frozenset[TriggerEvent]
    action: TriggerAction
    condition: Predicate | None = None
    enabled: bool = True
    fire_count: int = field(default=0, compare=False)


class TriggerManager:
    """Registry + dispatcher of row triggers for one store."""

    def __init__(self) -> None:
        # Copy-on-write tuples: ``fire`` iterates a snapshot for free, so
        # actions may add or remove triggers while it runs.
        self._by_table: dict[str, tuple[RowTrigger, ...]] = {}
        self._names: set[str] = set()
        self._depth = 0

    def add(self, trigger: RowTrigger) -> Callable[[], None]:
        """Register; returns a removal callable. Names must be unique."""
        if trigger.name in self._names:
            raise StoreError(f"duplicate trigger name {trigger.name!r}")
        self._names.add(trigger.name)
        self._by_table[trigger.table] = (*self._by_table.get(trigger.table, ()), trigger)

        def remove() -> None:
            current = self._by_table.get(trigger.table, ())
            if trigger in current:
                i = current.index(trigger)
                self._by_table[trigger.table] = current[:i] + current[i + 1:]
                self._names.discard(trigger.name)

        return remove

    def triggers_for(self, table: str) -> list[RowTrigger]:
        return list(self._by_table.get(table, ()))

    def fire(
        self,
        event: TriggerEvent,
        table: str,
        old: Optional[dict[str, Any]],
        new: Optional[dict[str, Any]],
    ) -> int:
        """Run all matching triggers; returns the number that fired.

        Raises :class:`StoreError` when the cascade exceeds
        ``MAX_TRIGGER_DEPTH`` (mutual-recursion protection, like Oracle's
        ORA-00036).
        """
        triggers = self._by_table.get(table)
        if not triggers:
            return 0
        if self._depth >= MAX_TRIGGER_DEPTH:
            raise StoreError(
                f"trigger cascade exceeded depth {MAX_TRIGGER_DEPTH} on {table!r}"
            )
        # Inserts and updates carry a new row, deletes only the old one.
        subject = old if new is None else new
        ctx = None
        fired = 0
        self._depth += 1
        try:
            for trig in triggers:
                if not trig.enabled or event not in trig.events:
                    continue
                if trig.condition is not None and not trig.condition.matches(subject or {}):
                    continue
                trig.fire_count += 1
                fired += 1
                if ctx is None:
                    ctx = TriggerContext(event, table, old, new)
                trig.action(ctx)
        finally:
            self._depth -= 1
        return fired
