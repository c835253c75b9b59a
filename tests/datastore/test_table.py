"""Tests for the table engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.predicate import where
from repro.datastore.schema import Column, ColumnType, schema
from repro.datastore.table import Table, _sort_key
from repro.util.errors import DuplicateKeyError, QueryError, SchemaError


def make_table():
    t = Table(
        "slots",
        schema(
            "slot_id",
            slot_id=ColumnType.INT,
            status=ColumnType.STR,
            hour=ColumnType.INT,
            owner=Column("", ColumnType.STR, nullable=True),
        ),
    )
    for i, (status, hour) in enumerate(
        [("free", 9), ("busy", 10), ("free", 11), ("busy", 9)]
    ):
        t.insert({"slot_id": i, "status": status, "hour": hour})
    return t


class TestInsert:
    def test_insert_and_get(self):
        t = make_table()
        assert t.get(0)["status"] == "free"

    def test_insert_returns_copy(self):
        t = make_table()
        row = t.insert({"slot_id": 99, "status": "free", "hour": 1})
        row["status"] = "mutated"
        assert t.get(99)["status"] == "free"

    def test_get_returns_copy(self):
        t = make_table()
        t.get(0)["status"] = "mutated"
        assert t.get(0)["status"] == "free"

    def test_duplicate_pk_rejected(self):
        t = make_table()
        with pytest.raises(DuplicateKeyError):
            t.insert({"slot_id": 0, "status": "free", "hour": 1})

    def test_len(self):
        assert len(make_table()) == 4


class TestSelect:
    def test_select_all_ordered_by_pk(self):
        rows = make_table().select()
        assert [r["slot_id"] for r in rows] == [0, 1, 2, 3]

    def test_select_with_predicate(self):
        rows = make_table().select(where("status") == "free")
        assert {r["slot_id"] for r in rows} == {0, 2}

    def test_order_by_and_desc(self):
        rows = make_table().select(order_by="hour", descending=True)
        assert [r["hour"] for r in rows] == [11, 10, 9, 9]

    def test_limit(self):
        assert len(make_table().select(limit=2)) == 2
        assert make_table().select(limit=0) == []

    def test_projection(self):
        rows = make_table().select(columns=["slot_id", "hour"])
        assert set(rows[0]) == {"slot_id", "hour"}

    def test_projection_unknown_column(self):
        with pytest.raises(SchemaError):
            make_table().select(columns=["nope"])

    def test_order_by_unknown_column(self):
        with pytest.raises(QueryError):
            make_table().select(order_by="nope")

    def test_count(self):
        t = make_table()
        assert t.count() == 4
        assert t.count(where("hour") == 9) == 2


class TestUpdateDelete:
    def test_update_returns_old_new_pairs(self):
        t = make_table()
        pairs = t.update_rows(where("status") == "free", {"status": "reserved"})
        assert len(pairs) == 2
        assert all(old["status"] == "free" and new["status"] == "reserved" for old, new in pairs)
        assert t.count(where("status") == "reserved") == 2

    def test_update_validates_types(self):
        t = make_table()
        with pytest.raises(SchemaError):
            t.update_rows(None, {"hour": "ten"})

    def test_empty_changes_noop(self):
        assert make_table().update_rows(None, {}) == []

    def test_delete(self):
        t = make_table()
        removed = t.delete_rows(where("status") == "busy")
        assert len(removed) == 2
        assert len(t) == 2

    def test_delete_all_with_none(self):
        t = make_table()
        t.delete_rows(None)
        assert len(t) == 0


class TestIndexes:
    def test_index_served_lookup(self):
        t = make_table()
        t.create_index("status")
        assert {r["slot_id"] for r in t.select(where("status") == "free")} == {0, 2}

    def test_index_stays_consistent_after_update(self):
        t = make_table()
        t.create_index("status")
        t.update_rows(where("slot_id") == 0, {"status": "busy"})
        assert {r["slot_id"] for r in t.select(where("status") == "busy")} == {0, 1, 3}
        assert {r["slot_id"] for r in t.select(where("status") == "free")} == {2}

    def test_index_stays_consistent_after_delete(self):
        t = make_table()
        t.create_index("hour")
        t.delete_rows(where("slot_id") == 0)
        assert {r["slot_id"] for r in t.select(where("hour") == 9)} == {3}

    def test_index_on_unknown_column(self):
        with pytest.raises(SchemaError):
            make_table().create_index("nope")

    def test_pk_equality_fast_path(self):
        t = make_table()
        rows = t.select(where("slot_id") == 2)
        assert len(rows) == 1 and rows[0]["hour"] == 11

    def test_pk_equality_missing(self):
        assert make_table().select(where("slot_id") == 777) == []

    def test_index_and_extra_predicate(self):
        t = make_table()
        t.create_index("status")
        rows = t.select((where("status") == "free") & (where("hour") > 9))
        assert [r["slot_id"] for r in rows] == [2]

    def test_indexed_columns_listed(self):
        t = make_table()
        t.create_index("status")
        assert t.indexed_columns() == ["status"]


def test_storage_bytes_positive_and_grows():
    t = make_table()
    before = t.storage_bytes()
    t.insert({"slot_id": 50, "status": "free", "hour": 9, "owner": "someone"})
    assert t.storage_bytes() > before > 0


_mixed_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="ab", max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.one_of(
        st.lists(_mixed_values, max_size=12),
        st.lists(st.text(alphabet="abc", max_size=3), max_size=12),
        st.lists(st.one_of(st.integers(-3, 3), st.floats(allow_nan=True)), max_size=12),
    ),
    descending=st.booleans(),
)
def test_select_order_is_the_sort_key_order(values, descending):
    t = Table("t", schema("id", id=ColumnType.INT, v=Column("", ColumnType.JSON, nullable=True)))
    for i, v in enumerate(values):
        t.insert({"id": i, "v": v})
    got = [r["id"] for r in t.select(order_by="v", descending=descending)]
    want = sorted(range(len(values)), key=lambda i: _sort_key(values[i]), reverse=descending)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(pks=st.lists(st.one_of(st.integers(-5, 5), st.floats(-5, 5)), unique=True, max_size=12))
def test_default_order_is_by_primary_key(pks):
    t = Table("t", schema("id", id=ColumnType.FLOAT))
    for pk in pks:
        t.insert({"id": pk})
    assert [r["id"] for r in t.select()] == sorted(pks, key=_sort_key)
