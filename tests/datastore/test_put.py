"""``DataStore.put`` does what the update-or-insert it replaces did.

Table-driven over the three store kinds: each case seeds two stores with
the same rows, runs ``put`` on one and a get/update/insert branch on the
other, and requires the same rows, the same ``(event, old, new)`` trigger
events and the same journal entries.
"""

import pytest

from repro.datastore.flatfile import FlatFileStore
from repro.datastore.liststore import ListStore
from repro.datastore.predicate import Cmp, where
from repro.datastore.schema import Column, ColumnType, schema
from repro.datastore.store import RelationalStore
from repro.datastore.triggers import RowTrigger, TriggerEvent
from repro.datastore.wal import ChangeJournal, attach_journal
from repro.util.errors import SchemaError

STORE_KINDS = [RelationalStore, FlatFileStore, ListStore]
T = "t"
ALL_EVENTS = frozenset(TriggerEvent)


def row(pk, n=0, tags=(), note=None):
    return {"id": pk, "n": n, "tags": list(tags), "note": note, "flag": False}


def make(kind, rows):
    store = kind("s")
    store.create_table(
        T,
        schema(
            "id",
            id=ColumnType.STR,
            n=ColumnType.INT,
            tags=ColumnType.JSON,
            note=Column("", ColumnType.STR, nullable=True),
            flag=Column("", ColumnType.BOOL, default=False),
        ),
    )
    for r in rows:
        store.insert(T, r)
    events, journal = [], ChangeJournal()
    store.add_trigger(
        RowTrigger("spy", T, ALL_EVENTS, lambda ctx: events.append((ctx.event, ctx.old, ctx.new)))
    )
    attach_journal(store, journal)
    return store, events, journal


def update_or_insert(store, table, new):
    """The branch ``put`` replaces at its call sites."""
    pk = store.schema(table).primary_key
    if store.get(table, new[pk]) is None:
        store.insert(table, new)
    else:
        changes = {k: v for k, v in new.items() if k != pk}
        store.update(table, Cmp(pk, "=", new[pk]), changes)


CASES = {
    "insert into empty": ([], [row("a", 1)]),
    "insert beside others": ([row("a"), row("c")], [row("b", 2, ["x"])]),
    "replace": ([row("a", 1, ["x"]), row("b")], [row("a", 2, ["y", "z"], "hi")]),
    "replace with same content": ([row("a", 1)], [row("a", 1)]),
    "replace then insert then replace": (
        [row("a")],
        [row("a", 5), row("b", 6), row("b", 7, note="n")],
    ),
}


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
@pytest.mark.parametrize("case", sorted(CASES))
def test_put_equals_update_or_insert(kind, case):
    seed, writes = CASES[case]
    store, events, journal = make(kind, seed)
    ref, ref_events, ref_journal = make(kind, seed)
    for new in writes:
        before = store.version(T)
        assert store.put(T, new) is None
        assert store.version(T) > before
        update_or_insert(ref, T, new)
    assert store.select(T) == ref.select(T)
    assert events == ref_events
    assert len(events) == len(writes)
    assert journal.serialize() == ref_journal.serialize()


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
def test_replace_leaves_exactly_the_put_row(kind):
    store, events, _ = make(kind, [dict(row("a", 1), flag=True)])
    store.put(T, {"id": "a", "n": 2, "tags": []})
    assert store.get(T, "a") == row("a", 2)  # note back to None, flag to its default
    assert events == [
        (TriggerEvent.UPDATE, dict(row("a", 1), flag=True), row("a", 2)),
    ]


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
@pytest.mark.parametrize(
    "bad",
    [{"n": 1, "tags": []}, {"id": "a", "n": "one", "tags": []}, dict(row("a"), extra=1)],
    ids=["no pk", "bad type", "unknown column"],
)
def test_rejected_put_changes_nothing(kind, bad):
    store, events, journal = make(kind, [row("a", 1)])
    with pytest.raises(SchemaError):
        store.put(T, bad)
    assert store.select(T) == [row("a", 1)]
    assert events == [] and len(journal) == 0


def test_relational_put_stamps_once_and_keeps_indexes():
    store, _, _ = make(RelationalStore, [row("a", 1), row("b", 1)])
    store.create_index(T, "n")
    before = store.version(T)
    store.put(T, row("a", 2))
    assert store.version(T) == before + 1
    assert [r["id"] for r in store.select(T, where("n") == 1)] == ["b"]
    assert [r["id"] for r in store.select(T, where("n") == 2)] == ["a"]
    store.put(T, row("c", 2))
    assert [r["id"] for r in store.select(T, where("n") == 2)] == ["a", "c"]
    # select re-checks its predicate, so look at the index itself too
    assert store._tables[T]._indexes["n"] == {1: {"b"}, 2: {"a", "c"}}
