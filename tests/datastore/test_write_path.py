"""Write-path equivalence across the three store kinds.

Random insert/update/delete sequences run against each store with a
change journal and a recording trigger attached, and against a plain
dict model. Per operation, the trigger stream ``(event, old, new)`` and
the outcome must match the model; at the end the rows must, and
replaying the journal onto an empty copy must reproduce the store. A
rejected write must leave rows, journal and triggers untouched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.flatfile import FlatFileStore
from repro.datastore.liststore import ListStore
from repro.datastore.predicate import And, Cmp
from repro.datastore.schema import Column, ColumnType, schema
from repro.datastore.store import RelationalStore
from repro.datastore.triggers import RowTrigger, TriggerEvent
from repro.datastore.wal import ChangeJournal, attach_journal, replay
from repro.util.errors import DuplicateKeyError, SchemaError

KINDS = {"relational": RelationalStore, "flatfile": FlatFileStore, "list": ListStore}

SCHEMA = schema(
    "k",
    k=ColumnType.INT,
    n=ColumnType.INT,
    s=Column("", ColumnType.STR, nullable=True),
    j=Column("", ColumnType.JSON, nullable=True),
    f=Column("", ColumnType.FLOAT, default=0.0),
)

# Values every store kind round-trips unchanged (the flat-file store
# keeps text cells, so its strings avoid escape characters).
pks = st.integers(0, 6)
ns = st.integers(0, 3)
strs = st.one_of(st.none(), st.text(alphabet="abc xyz", max_size=5))
jsons = st.one_of(
    st.none(),
    st.lists(st.integers(-5, 5), max_size=3),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
)
floats = st.floats(-100, 100, allow_nan=False)

good_row = st.fixed_dictionaries(
    {"k": pks, "n": ns}, optional={"s": strs, "j": jsons, "f": floats}
)
good_changes = st.fixed_dictionaries({}, optional={"n": ns, "s": strs, "j": jsons, "f": floats})
#: updates the schema rejects, whatever rows they would touch
bad_changes = st.sampled_from([
    {"n": "three"},
    {"s": 5},
    {"j": {1: "int key"}},
    {"f": True},
    {"n": None},
    {"k": 9},
    {"nope": 1},
    {"n": 1, "k": 2},
])
#: inserts the schema rejects (a duplicate key is generated separately)
bad_rows = st.sampled_from([
    {"k": 1},
    {"k": 1, "n": "x"},
    {"k": "1", "n": 1},
    {"k": 1, "n": 1, "j": b"raw"},
    {"k": 1, "n": 1, "zz": 0},
])
predicates = st.one_of(
    st.none(),
    pks.map(lambda k: Cmp("k", "=", k)),
    ns.map(lambda n: Cmp("n", "=", n)),
    st.just(Cmp("k", "=", 99)),
    st.tuples(pks, ns).map(lambda t: And(Cmp("k", "=", t[0]), Cmp("n", "=", t[1]))),
    ns.map(lambda n: Cmp("n", ">", n)),
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), good_row),
        st.tuples(st.just("insert-bad"), bad_rows),
        st.tuples(st.just("insert-dup"), pks),
        st.tuples(st.just("update"), predicates, good_changes),
        st.tuples(st.just("update-bad"), predicates, bad_changes),
        st.tuples(st.just("delete"), predicates),
    ),
    max_size=25,
)


def _fresh(kind):
    store = KINDS[kind](f"{kind}-store")
    store.create_table("t", SCHEMA)
    if kind == "relational":
        store.create_index("t", "n")
    return store


def _normalized(row):
    out = {"s": None, "j": None, "f": 0.0}
    out.update(row)
    return out


def _by_pk(events):
    return sorted(events, key=lambda e: (e[1] or e[2])["k"])


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(sequence=ops)
def test_write_path_matches_dict_model(kind, sequence):
    store = _fresh(kind)
    journal = ChangeJournal()
    attach_journal(store, journal)
    seen = []
    store.add_trigger(RowTrigger(
        "record", "t", frozenset(TriggerEvent),
        lambda ctx: seen.append((ctx.event.value, ctx.old and dict(ctx.old), ctx.new and dict(ctx.new))),
    ))
    model: dict[int, dict] = {}

    for op in sequence:
        before_rows = store.select("t")
        before_journal = len(journal)
        seen.clear()
        verb = op[0]
        if verb == "insert":
            row = op[1]
            if row["k"] in model:
                with pytest.raises(DuplicateKeyError):
                    store.insert("t", row)
                expected = None
            else:
                stored = store.insert("t", row)
                model[row["k"]] = _normalized(row)
                assert stored == model[row["k"]]
                expected = [("insert", None, model[row["k"]])]
        elif verb == "insert-bad":
            with pytest.raises(SchemaError):
                store.insert("t", op[1])
            expected = None
        elif verb == "insert-dup":
            if op[1] not in model:
                continue
            with pytest.raises(DuplicateKeyError):
                store.insert("t", {"k": op[1], "n": 0})
            expected = None
        elif verb == "update":
            pred, changes = op[1], op[2]
            hits = [] if not changes else [
                r for r in model.values() if pred is None or pred.matches(r)
            ]
            assert store.update("t", pred, changes) == len(hits)
            expected = []
            for old in hits:
                new = {**old, **changes}
                model[old["k"]] = new
                expected.append(("update", old, new))
        elif verb == "update-bad":
            with pytest.raises(SchemaError):
                store.update("t", op[1], op[2])
            expected = None
        else:
            pred = op[1]
            hits = [r for r in model.values() if pred is None or pred.matches(r)]
            assert store.delete("t", pred) == len(hits)
            for row in hits:
                del model[row["k"]]
            expected = [("delete", row, None) for row in hits]

        if expected is None:  # a rejected write touches nothing
            assert seen == []
            assert len(journal) == before_journal
            assert store.select("t") == before_rows
        else:
            assert _by_pk(seen) == _by_pk(expected)
            assert len(journal) == before_journal + len(expected)

    assert store.select("t") == [model[k] for k in sorted(model)]
    baseline = _fresh(kind)
    assert replay(journal, baseline) == len(journal)
    assert baseline.select("t") == store.select("t")
