"""Seeded generative tests for the store's query planner.

A plain-``random`` generator (no external shrinking machinery) builds
predicate trees and rows; the oracle is a full scan with
``Predicate.matches``. ``RelationalStore.select`` must return exactly
the rows the oracle keeps, whichever path the planner takes: the
primary-key-direct lookup, a secondary index, or a scan.
"""

import random

import pytest

from repro.datastore.predicate import ALWAYS, Cmp, In, IsNull, Like, Not
from repro.datastore.schema import Column, ColumnType, Schema
from repro.datastore.store import RelationalStore

COLUMNS = ["alpha", "beta", "gamma"]
SEED = 0xC0FFEE
ROWS = 60


def random_value(rng: random.Random):
    pick = rng.randrange(5)
    if pick == 0:
        return rng.randint(-100, 100)
    if pick == 1:
        return rng.choice([True, False])
    if pick == 2:
        return None
    if pick == 3:
        return round(rng.uniform(-50, 50), 3)
    alphabet = "ab'c%_ "
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(7)))


def random_pk(rng: random.Random):
    # Mostly present keys, some absent ones, and equal-but-not-int keys.
    return rng.choice([rng.randrange(ROWS), rng.randrange(ROWS, ROWS + 5), -1, 3.0, True])


def random_leaf(rng: random.Random):
    column = rng.choice(COLUMNS)
    pick = rng.randrange(8)
    if pick == 6:
        return Cmp("id", "=", random_pk(rng))
    if pick == 7:
        return In("id", [random_pk(rng) for _ in range(rng.randrange(4))])
    if pick == 0:
        return Cmp(column, rng.choice(["=", "!="]), random_value(rng))
    if pick == 1:
        return Cmp(column, rng.choice(["<", "<=", ">", ">="]), rng.randint(-100, 100))
    if pick == 2:
        return In(column, [rng.randint(-5, 5) for _ in range(rng.randrange(5))])
    if pick == 3:
        alphabet = "ab%_'"
        return Like(column, "".join(rng.choice(alphabet) for _ in range(rng.randrange(6))))
    if pick == 4:
        return IsNull(column)
    return ALWAYS


def random_tree(rng: random.Random, depth: int = 0):
    if depth >= 3 or rng.random() < 0.4:
        return random_leaf(rng)
    pick = rng.randrange(3)
    if pick == 0:
        return random_tree(rng, depth + 1) & random_tree(rng, depth + 1)
    if pick == 1:
        return random_tree(rng, depth + 1) | random_tree(rng, depth + 1)
    return Not(random_tree(rng, depth + 1))


def random_row(rng: random.Random):
    row = {}
    for column in COLUMNS:
        pick = rng.randrange(5)
        if pick == 0:
            continue  # column absent
        if pick == 1:
            row[column] = rng.randint(-100, 100)
        elif pick == 2:
            row[column] = rng.choice([True, False, None])
        else:
            row[column] = "".join(
                rng.choice("abc%_' ") for _ in range(rng.randrange(6))
            )
    return row


@pytest.fixture
def store_and_rows():
    store = RelationalStore("gen")
    store.create_table(
        "t",
        Schema(
            (
                Column("id", ColumnType.INT),
                Column("alpha", ColumnType.JSON, nullable=True, default=None),
                Column("beta", ColumnType.JSON, nullable=True, default=None),
                Column("gamma", ColumnType.JSON, nullable=True, default=None),
            ),
            primary_key="id",
        ),
    )
    store.create_index("t", "alpha")
    rng = random.Random(SEED + 2)
    rows = []
    for i in range(ROWS):
        row = random_row(rng)
        row["id"] = i
        store.insert("t", row)
        rows.append(row)
    return store, rows


def test_select_agrees_with_full_scan_oracle(store_and_rows):
    store, rows = store_and_rows
    rng = random.Random(SEED + 3)
    nontrivial = 0
    for _ in range(150):
        tree = random_tree(rng)
        # A pk equality ANDed onto the tree takes the planner's pk-binding path.
        for pred in (tree, Cmp("id", "=", random_pk(rng)) & tree):
            selected = {r["id"] for r in store.select("t", pred)}
            assert selected == {r["id"] for r in rows if pred.matches(r)}, pred
            assert store.count("t", pred) == len(selected), pred
            if 0 < len(selected) < ROWS:
                nontrivial += 1
    # the generator must exercise real filtering, not just ALWAYS/NEVER
    assert nontrivial > 20
