"""Table-driven pin of what each column type accepts, and of every rejection text.

Every ``ColumnType`` × value × nullable combination goes through the
three validation entry points (``Column.validate``,
``Schema.normalize_insert`` and ``Schema.validate_update``). Each must
accept exactly the values listed below and reject the others with the
same ``SchemaError`` message.
"""

from enum import Enum, IntEnum

import pytest

from repro.datastore.schema import Column, ColumnType, schema
from repro.util.errors import SchemaError

INT, FLOAT, STR, BOOL, JSON = (
    ColumnType.INT,
    ColumnType.FLOAT,
    ColumnType.STR,
    ColumnType.BOOL,
    ColumnType.JSON,
)


class MyInt(int):
    pass


class MyFloat(float):
    pass


class MyStr(str):
    pass


class MyList(list):
    pass


class MyDict(dict):
    pass


class Level(IntEnum):
    HIGH = 2


class Colour(str, Enum):
    RED = "red"


class Opaque:
    def __repr__(self):
        return "Opaque()"


NUMERIC = {INT, FLOAT, JSON}
SCALAR_JSON = {JSON}

#: (label, value, column types that accept it as a non-null value)
CASES = [
    ("true", True, {BOOL, JSON}),
    ("false", False, {BOOL, JSON}),
    ("zero", 0, NUMERIC),
    ("int", 42, NUMERIC),
    ("negative", -7, NUMERIC),
    ("big-int", 2**70, NUMERIC),
    ("float", 1.5, {FLOAT, JSON}),
    ("float-zero", 0.0, {FLOAT, JSON}),
    ("str", "x", {STR, JSON}),
    ("empty-str", "", {STR, JSON}),
    ("int-subclass", MyInt(3), NUMERIC),
    ("int-enum", Level.HIGH, NUMERIC),
    ("float-subclass", MyFloat(2.5), {FLOAT, JSON}),
    ("str-subclass", MyStr("s"), {STR, JSON}),
    ("str-enum", Colour.RED, {STR, JSON}),
    ("list", [1, "a", None, True, 2.5], SCALAR_JSON),
    ("empty-list", [], SCALAR_JSON),
    ("list-subclass", MyList([1, 2]), SCALAR_JSON),
    ("dict", {"a": 1, "b": [None]}, SCALAR_JSON),
    ("empty-dict", {}, SCALAR_JSON),
    ("dict-subclass", MyDict(k=1), SCALAR_JSON),
    ("dict-str-subclass-key", {MyStr("k"): 1}, SCALAR_JSON),
    ("tuple", (1, "a"), SCALAR_JSON),
    ("empty-tuple", (), SCALAR_JSON),
    ("bytes", b"x", set()),
    ("set", {1}, set()),
    ("opaque", Opaque(), set()),
    ("dict-int-key", {1: "a"}, set()),
    ("dict-tuple-key", {(1, 2): "a"}, set()),
    ("nested-ok", {"a": [1, {"b": None, "c": (2, "x")}], "d": MyList([MyDict()])}, SCALAR_JSON),
    ("nested-bytes-leaf", [1, [2, [3, b"x"]]], set()),
    ("nested-bad-key", [{"k": {2: 1}}], set()),
    ("nested-set-leaf", {"a": {"b": {3}}}, set()),
    ("tuple-of-bytes", (b"a",), set()),
    ("list-of-subclasses", [MyInt(1), MyFloat(1.0), MyStr("z"), Level.HIGH, Colour.RED], SCALAR_JSON),
]

TYPES = [INT, FLOAT, STR, BOOL, JSON]

GRID = [
    pytest.param(ctype, nullable, value, ctype in accepted, id=f"{ctype.value}-{label}-{'null' if nullable else 'req'}")
    for ctype in TYPES
    for nullable in (False, True)
    for label, value, accepted in CASES
]


def _expected_message(ctype, value):
    return f"column 'c' expects {ctype.value}, got {value!r}"


def _entry_points(ctype, nullable):
    """(name, callable) for each validation path of a column ``c``."""
    col = Column("c", ctype, nullable=nullable)
    sch = schema("id", id=INT, c=col)
    return [
        ("Column.validate", col.validate),
        ("normalize_insert", lambda v: sch.normalize_insert({"id": 1, "c": v})),
        ("validate_update", lambda v: sch.validate_update({"c": v})),
    ]


@pytest.mark.parametrize("ctype,nullable,value,accepted", GRID)
def test_acceptance_grid(ctype, nullable, value, accepted):
    assert ctype.accepts(value) is accepted
    for name, check in _entry_points(ctype, nullable):
        if accepted:
            check(value)
        else:
            with pytest.raises(SchemaError) as info:
                check(value)
            assert str(info.value) == _expected_message(ctype, value), name


@pytest.mark.parametrize("ctype", TYPES, ids=[t.value for t in TYPES])
@pytest.mark.parametrize("nullable", [False, True], ids=["req", "null"])
def test_none(ctype, nullable):
    for name, check in _entry_points(ctype, nullable):
        if nullable:
            check(None)
        else:
            with pytest.raises(SchemaError) as info:
                check(None)
            assert str(info.value) == "column 'c' is not nullable", name


def test_normalize_insert_keeps_the_value_object():
    value = MyList([1, 2])
    row = schema("id", id=INT, c=JSON).normalize_insert({"id": 1, "c": value})
    assert row["c"] is value


def test_rejection_order_and_texts():
    sch = schema(
        "id",
        id=INT,
        a=STR,
        b=Column("", INT, nullable=True),
        d=Column("", BOOL, default=True),
    )
    cases = [
        (lambda: sch.normalize_insert({"id": 1, "a": "x", "zz": 1, "yy": 2}),
         "unknown columns ['yy', 'zz']"),
        (lambda: sch.normalize_insert({"id": 1}), "missing required column 'a'"),
        # columns are checked in schema order: 'id' fails before 'a'
        (lambda: sch.normalize_insert({"id": "1", "a": 2}), "column 'id' expects int, got '1'"),
        (lambda: sch.normalize_insert({"id": 1, "a": "x", "d": None}), "column 'd' is not nullable"),
        (lambda: sch.validate_update({"nope": 1}), "no column 'nope'"),
        (lambda: sch.validate_update({"a": 1, "id": 2}), "column 'a' expects str, got 1"),
        (lambda: sch.validate_update({"id": 2}), "updating the primary key is not supported"),
        (lambda: sch.validate_update({"id": "2"}), "column 'id' expects int, got '2'"),
    ]
    for call, message in cases:
        with pytest.raises(SchemaError) as info:
            call()
        assert str(info.value) == message


def test_bad_default_is_rejected_on_insert():
    sch = schema("id", id=INT, c=Column("", INT, default="zero"))
    with pytest.raises(SchemaError) as info:
        sch.normalize_insert({"id": 1})
    assert str(info.value) == "column 'c' expects int, got 'zero'"
    assert sch.normalize_insert({"id": 1, "c": 5}) == {"id": 1, "c": 5}
