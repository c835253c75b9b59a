"""Tests for table schemas."""

import pytest

from repro.datastore.schema import Column, ColumnType, Schema, schema
from repro.util.errors import SchemaError


def make_schema():
    return schema(
        "id",
        id=ColumnType.INT,
        name=ColumnType.STR,
        score=Column("", ColumnType.FLOAT, nullable=True),
        active=Column("", ColumnType.BOOL, default=True),
    )


class TestColumnType:
    def test_int_accepts_ints_not_bools(self):
        assert ColumnType.INT.accepts(5)
        assert not ColumnType.INT.accepts(True)
        assert not ColumnType.INT.accepts(5.0)

    def test_float_accepts_ints_and_floats(self):
        assert ColumnType.FLOAT.accepts(5)
        assert ColumnType.FLOAT.accepts(5.5)
        assert not ColumnType.FLOAT.accepts("5.5")

    def test_str_bool(self):
        assert ColumnType.STR.accepts("x")
        assert not ColumnType.STR.accepts(1)
        assert ColumnType.BOOL.accepts(False)
        assert not ColumnType.BOOL.accepts(0)

    def test_json_accepts_nested(self):
        assert ColumnType.JSON.accepts({"a": [1, "x", {"b": None}]})
        assert not ColumnType.JSON.accepts({1: "non-str key"})
        assert not ColumnType.JSON.accepts(object())

    def test_coerce_from_strings(self):
        assert ColumnType.INT.coerce("42") == 42
        assert ColumnType.FLOAT.coerce("4.5") == 4.5
        assert ColumnType.BOOL.coerce("true") is True
        assert ColumnType.BOOL.coerce("false") is False
        assert ColumnType.STR.coerce(17) == "17"
        assert ColumnType.INT.coerce(None) is None


class TestColumn:
    def test_validate_accepts_good_value(self):
        Column("x", ColumnType.INT).validate(3)

    def test_validate_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            Column("x", ColumnType.INT).validate("3")

    def test_nullable_accepts_none(self):
        Column("x", ColumnType.INT, nullable=True).validate(None)

    def test_non_nullable_rejects_none(self):
        with pytest.raises(SchemaError):
            Column("x", ColumnType.INT).validate(None)


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema((Column("a", ColumnType.INT), Column("a", ColumnType.STR)), "a")

    def test_pk_must_be_a_column(self):
        with pytest.raises(SchemaError):
            Schema((Column("a", ColumnType.INT),), "zz")

    def test_pk_cannot_be_nullable(self):
        with pytest.raises(SchemaError):
            Schema((Column("a", ColumnType.INT, nullable=True),), "a")

    def test_column_lookup(self):
        s = make_schema()
        assert s.column("name").ctype is ColumnType.STR
        assert s.has_column("score")
        assert not s.has_column("nope")
        with pytest.raises(SchemaError):
            s.column("nope")

    def test_column_names_ordered(self):
        assert make_schema().column_names == ["id", "name", "score", "active"]


class TestNormalizeInsert:
    def test_applies_defaults_and_nullable(self):
        row = make_schema().normalize_insert({"id": 1, "name": "a"})
        assert row == {"id": 1, "name": "a", "score": None, "active": True}

    def test_missing_required_rejected(self):
        with pytest.raises(SchemaError, match="name"):
            make_schema().normalize_insert({"id": 1})

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError, match="bogus"):
            make_schema().normalize_insert({"id": 1, "name": "a", "bogus": 1})

    def test_type_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().normalize_insert({"id": "one", "name": "a"})

    def test_returns_new_dict(self):
        src = {"id": 1, "name": "a"}
        row = make_schema().normalize_insert(src)
        assert row is not src


class TestValidateUpdate:
    def test_good_update(self):
        make_schema().validate_update({"name": "b", "score": 1.5})

    def test_pk_update_rejected(self):
        with pytest.raises(SchemaError, match="primary key"):
            make_schema().validate_update({"id": 2})

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().validate_update({"bogus": 1})


def test_schema_helper_with_full_columns():
    s = schema("k", k=ColumnType.STR, v=Column("ignored", ColumnType.INT, default=0))
    assert s.column("v").default == 0
    assert s.column("v").name == "v"


class TestDeepJson:
    """JSON values are checked with an explicit stack, like message sizing."""

    @staticmethod
    def _nested(leaf, depth=5_000):
        value = [leaf]
        for _ in range(depth):
            value = [value]
        return value

    def _store(self):
        from repro.datastore.store import RelationalStore

        store = RelationalStore("deep")
        store.create_table("t", schema("id", id=ColumnType.INT, doc=ColumnType.JSON))
        return store

    def test_deeply_nested_json_is_accepted(self):
        store = self._store()
        deep = self._nested(1)  # would RecursionError if the check recursed
        assert store.insert("t", {"id": 1, "doc": deep})["doc"] is deep
        assert store.update("t", None, {"doc": self._nested({"k": "v"})}) == 1

    def test_bad_leaf_at_depth_5000_is_rejected(self):
        store = self._store()
        with pytest.raises(SchemaError, match="column 'doc' expects json"):
            store.insert("t", {"id": 1, "doc": self._nested(b"bytes")})
        assert store.count("t") == 0

    def test_self_containing_value_is_rejected(self):
        loop = [1]
        loop.append(loop)
        with pytest.raises(SchemaError, match=r"got \[1, \[\.\.\.\]\]"):
            Column("doc", ColumnType.JSON).validate(loop)

    def test_shared_branch_is_accepted(self):
        shared = {"a": [1, 2]}
        assert ColumnType.JSON.accepts([shared, shared, {"again": shared}])
