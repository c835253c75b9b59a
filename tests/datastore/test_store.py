"""Tests for RelationalStore (incl. trigger firing)."""

import pytest

from repro.datastore.predicate import where
from repro.datastore.schema import ColumnType, schema
from repro.datastore.store import RelationalStore
from repro.datastore.triggers import RowTrigger, TriggerEvent
from repro.util.errors import StoreError, UnknownTableError, UnsupportedOperationError


def make_store():
    store = RelationalStore("phil")
    store.create_table(
        "cal", schema("id", id=ColumnType.INT, status=ColumnType.STR)
    )
    return store


class TestSchemaOps:
    def test_create_and_list(self):
        s = make_store()
        assert s.table_names() == ["cal"]
        assert s.has_table("cal")
        assert s.schema("cal").primary_key == "id"

    def test_duplicate_table_rejected(self):
        s = make_store()
        with pytest.raises(StoreError):
            s.create_table("cal", schema("id", id=ColumnType.INT))

    def test_drop_table(self):
        s = make_store()
        s.drop_table("cal")
        assert not s.has_table("cal")
        with pytest.raises(UnknownTableError):
            s.drop_table("cal")

    def test_unknown_table_operations(self):
        s = make_store()
        with pytest.raises(UnknownTableError):
            s.insert("nope", {})
        with pytest.raises(UnknownTableError):
            s.select("nope")


class TestDataOps:
    def test_crud_cycle(self):
        s = make_store()
        s.insert("cal", {"id": 1, "status": "free"})
        assert s.get("cal", 1)["status"] == "free"
        assert s.update("cal", where("id") == 1, {"status": "busy"}) == 1
        assert s.get("cal", 1)["status"] == "busy"
        assert s.delete("cal", where("id") == 1) == 1
        assert s.get("cal", 1) is None

    def test_count(self):
        s = make_store()
        for i in range(5):
            s.insert("cal", {"id": i, "status": "free" if i % 2 else "busy"})
        assert s.count("cal") == 5
        assert s.count("cal", where("status") == "free") == 2

    def test_storage_bytes(self):
        s = make_store()
        empty = s.storage_bytes()
        s.insert("cal", {"id": 1, "status": "free"})
        assert s.storage_bytes() > empty


class TestTriggers:
    def test_insert_trigger_fires(self):
        s = make_store()
        seen = []
        s.add_trigger(
            RowTrigger(
                "t1", "cal", frozenset({TriggerEvent.INSERT}), lambda ctx: seen.append(ctx)
            )
        )
        s.insert("cal", {"id": 1, "status": "free"})
        assert len(seen) == 1
        assert seen[0].new["id"] == 1
        assert seen[0].old is None

    def test_update_trigger_sees_old_and_new(self):
        s = make_store()
        seen = []
        s.insert("cal", {"id": 1, "status": "free"})
        s.add_trigger(
            RowTrigger(
                "t1", "cal", frozenset({TriggerEvent.UPDATE}), lambda ctx: seen.append(ctx)
            )
        )
        s.update("cal", where("id") == 1, {"status": "busy"})
        assert seen[0].old["status"] == "free"
        assert seen[0].new["status"] == "busy"
        assert seen[0].changed("status")
        assert not seen[0].changed("id")

    def test_delete_trigger_sees_old(self):
        s = make_store()
        seen = []
        s.insert("cal", {"id": 1, "status": "free"})
        s.add_trigger(
            RowTrigger(
                "t1", "cal", frozenset({TriggerEvent.DELETE}), lambda ctx: seen.append(ctx)
            )
        )
        s.delete("cal", where("id") == 1)
        assert seen[0].old["id"] == 1
        assert seen[0].new is None

    def test_conditional_trigger(self):
        s = make_store()
        seen = []
        s.add_trigger(
            RowTrigger(
                "t1",
                "cal",
                frozenset({TriggerEvent.INSERT}),
                lambda ctx: seen.append(ctx.new["id"]),
                condition=where("status") == "busy",
            )
        )
        s.insert("cal", {"id": 1, "status": "free"})
        s.insert("cal", {"id": 2, "status": "busy"})
        assert seen == [2]

    def test_trigger_removal(self):
        s = make_store()
        seen = []
        remove = s.add_trigger(
            RowTrigger(
                "t1", "cal", frozenset({TriggerEvent.INSERT}), lambda ctx: seen.append(1)
            )
        )
        remove()
        s.insert("cal", {"id": 1, "status": "x"})
        assert seen == []

    def test_duplicate_trigger_name_rejected(self):
        s = make_store()
        trig = RowTrigger("t1", "cal", frozenset({TriggerEvent.INSERT}), lambda ctx: None)
        s.add_trigger(trig)
        with pytest.raises(StoreError):
            s.add_trigger(
                RowTrigger("t1", "cal", frozenset({TriggerEvent.INSERT}), lambda ctx: None)
            )

    def test_runaway_trigger_cascade_guarded(self):
        s = make_store()
        counter = {"n": 0}

        def recurse(ctx):
            counter["n"] += 1
            s.insert("cal", {"id": 1000 + counter["n"], "status": "x"})

        s.add_trigger(
            RowTrigger("t1", "cal", frozenset({TriggerEvent.INSERT}), recurse)
        )
        with pytest.raises(StoreError, match="depth"):
            s.insert("cal", {"id": 1, "status": "x"})

    def test_disabled_trigger_does_not_fire(self):
        s = make_store()
        trig = RowTrigger(
            "t1", "cal", frozenset({TriggerEvent.INSERT}), lambda ctx: seen.append(1)
        )
        seen = []
        trig.enabled = False
        s.add_trigger(trig)
        s.insert("cal", {"id": 1, "status": "x"})
        assert seen == []

    def test_fire_count_tracked(self):
        s = make_store()
        trig = RowTrigger("t1", "cal", frozenset({TriggerEvent.INSERT}), lambda ctx: None)
        s.add_trigger(trig)
        s.insert("cal", {"id": 1, "status": "x"})
        s.insert("cal", {"id": 2, "status": "x"})
        assert trig.fire_count == 2


def test_abstract_extras_unsupported():
    from repro.datastore.liststore import ListStore

    ls = ListStore("x")
    with pytest.raises(UnsupportedOperationError):
        ls.create_index("t", "c")
