"""The cached free-slot view always equals a fresh scan of the slots table.

``CalendarStore.free_slots`` serves reads from a view rebuilt only when
the slots table's version moves. These tests drive every write path of
all three store kinds (calendar verbs, raw non-pk updates, delete and
insert, WAL replay, flat-file load, drop and re-create, and a row trigger
that reads free slots from inside a write) and compare every window,
and its ``{"day", "hour"}`` entities, against a reference scan kept here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calendar.model import SlotStatus, slot_id
from repro.calendar.storage import SLOTS_TABLE, CalendarStore, slots_schema
from repro.datastore.flatfile import FlatFileStore
from repro.datastore.liststore import ListStore
from repro.datastore.predicate import where
from repro.datastore.store import RelationalStore
from repro.datastore.triggers import RowTrigger, TriggerEvent
from repro.datastore.wal import ChangeJournal, replay
from repro.util.errors import ReproError

STORE_KINDS = [RelationalStore, FlatFileStore, ListStore]
DAYS, DAY_START, DAY_END = 3, 9, 12
STATUSES = [s.value for s in SlotStatus]
MEETINGS = [None, "m1", "m2"]
#: primary keys an insert may use: the calendar's own and a few strangers
SIDS = [slot_id(d, h) for d in range(DAYS) for h in range(DAY_START, DAY_END)] + [
    "x1",
    "x2",
]
ALL_EVENTS = frozenset((TriggerEvent.INSERT, TriggerEvent.UPDATE, TriggerEvent.DELETE))


def reference(store, day_from, day_to):
    """Free slots in the window by a full scan: chronological, pk on ties."""
    rows = [
        r
        for r in store.select(SLOTS_TABLE)
        if r["status"] == SlotStatus.FREE.value and day_from <= r["day"] <= day_to
    ]
    return sorted(rows, key=lambda r: (r["day"], r["hour"], r["slot_id"]))


def slot_row(sid, day, hour, status, meeting_id=None):
    return {
        "slot_id": sid,
        "day": day,
        "hour": hour,
        "status": status,
        "meeting_id": meeting_id,
        "priority": 0,
        "note": None,
    }


def assert_view_matches(cal):
    for day_from in range(-1, DAYS + 1):
        for day_to in range(day_from - 1, DAYS + 1):
            expected = reference(cal.store, day_from, day_to)
            assert cal.free_slots(day_from, day_to) == expected, (day_from, day_to)
            assert cal.free_entities(day_from, day_to) == [
                {"day": r["day"], "hour": r["hour"]} for r in expected
            ], (day_from, day_to)


def make_calendar(kind):
    store = kind("u")
    cal = CalendarStore(store, days=DAYS, day_start=DAY_START, day_end=DAY_END)
    reads = []

    def probe(ctx):
        # Reads from inside a write see the write's rows.
        got = cal.free_slots(0, DAYS - 1)
        assert got == reference(store, 0, DAYS - 1)
        reads.append(len(got))

    store.add_trigger(RowTrigger("probe", SLOTS_TABLE, ALL_EVENTS, probe))
    return cal, reads


def write(cal, verb, *args):
    """Run one mutating store verb; its version must move, the view follow."""
    before = cal.store.version(SLOTS_TABLE)
    verb(*args)
    assert cal.store.version(SLOTS_TABLE) > before, verb.__name__
    if cal.store.has_table(SLOTS_TABLE):
        assert_view_matches(cal)


def existing(cal, index):
    pks = sorted(r["slot_id"] for r in cal.store.select(SLOTS_TABLE))
    return pks[index % len(pks)] if pks else None


def apply(cal, op):
    store = cal.store
    name, *args = op
    if name == "set":
        index, status, meeting = args
        sid = existing(cal, index)
        if sid is not None:
            write(cal, cal.set_slot, sid, SlotStatus(status), meeting)
    elif name in ("block", "release"):
        sid = existing(cal, args[0])
        if sid is not None:
            write(cal, cal.block_slot if name == "block" else cal.release_slot, sid)
    elif name == "update_by_meeting":
        meeting, status = args
        write(cal, store.update, SLOTS_TABLE, where("meeting_id") == meeting, {"status": status})
    elif name == "delete_insert":
        sid, day, hour, status, meeting = args
        write(cal, store.delete, SLOTS_TABLE, where("slot_id") == sid)
        write(cal, store.insert, SLOTS_TABLE, slot_row(sid, day, hour, status, meeting))
    elif name == "replay":
        index, status = args
        sid = existing(cal, index)
        if sid is None:
            return
        row = store.get(SLOTS_TABLE, sid)
        journal = ChangeJournal()
        journal.append("update", SLOTS_TABLE, sid, dict(row, status=status))
        journal.append("delete", SLOTS_TABLE, sid, row)
        journal.append("insert", SLOTS_TABLE, sid, dict(row, status=status))
        write(cal, replay, journal, store)
    elif name == "load":
        (statuses,) = args
        if isinstance(store, FlatFileStore):
            source = FlatFileStore("source")
            source.create_table(SLOTS_TABLE, slots_schema())
            for i, status in enumerate(statuses):
                day, hour = divmod(i, DAY_END - DAY_START)
                source.insert(SLOTS_TABLE, slot_row(SIDS[i], day, hour + DAY_START, status))
            write(cal, store.load, SLOTS_TABLE, source.dump(SLOTS_TABLE))
    elif name == "recreate":
        (statuses,) = args
        write(cal, store.drop_table, SLOTS_TABLE)
        write(cal, store.create_table, SLOTS_TABLE, slots_schema())
        for i, status in enumerate(statuses):
            day, hour = divmod(i, DAY_END - DAY_START)
            write(cal, store.insert, SLOTS_TABLE, slot_row(SIDS[i], day, hour + DAY_START, status))
    elif name == "bad_update":
        # Rejected before any row changes: the view must still match.
        with pytest.raises(ReproError):
            store.update(SLOTS_TABLE, where("status") == args[0], {"day": "monday"})
    else:  # pragma: no cover - strategy and dispatcher are kept in step
        raise AssertionError(name)
    assert_view_matches(cal)


statuses = st.sampled_from(STATUSES)
ops = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 20), statuses, st.sampled_from(MEETINGS)),
    st.tuples(st.sampled_from(["block", "release"]), st.integers(0, 20)),
    st.tuples(st.just("update_by_meeting"), st.sampled_from(MEETINGS), statuses),
    st.tuples(
        st.just("delete_insert"),
        st.sampled_from(SIDS),
        st.integers(0, DAYS),
        st.integers(DAY_START - 1, DAY_END),
        statuses,
        st.sampled_from(MEETINGS),
    ),
    st.tuples(st.just("replay"), st.integers(0, 20), statuses),
    st.tuples(st.just("load"), st.lists(statuses, max_size=len(SIDS))),
    st.tuples(st.just("recreate"), st.lists(statuses, max_size=len(SIDS))),
    st.tuples(st.just("bad_update"), statuses),
)


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(ops, max_size=12))
def test_view_equals_fresh_scan_under_every_write_path(kind, steps):
    cal, _ = make_calendar(kind)
    assert_view_matches(cal)
    for op in steps:
        apply(cal, op)


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
def test_trigger_reads_inside_a_slot_update(kind):
    cal, reads = make_calendar(kind)
    assert_view_matches(cal)  # the view is warm before the write
    cal.block_slot(slot_id(0, 9))
    assert reads == [DAYS * (DAY_END - DAY_START) - 1]


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
def test_rows_are_fresh_copies(kind):
    cal, _ = make_calendar(kind)
    first = cal.free_slots(0, 0)
    first[0]["status"] = "scribbled"
    first.clear()
    assert cal.free_slots(0, 0) == reference(cal.store, 0, 0)
    assert cal.free_slots(0, 0)[0] is not cal.free_slots(0, 0)[0]


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
def test_non_numeric_bounds_match_no_row(kind):
    cal, _ = make_calendar(kind)
    assert cal.free_slots(None, 2) == []
    assert cal.free_slots(0, "2") == []
    assert cal.free_entities(None, 2) == []
    assert cal.free_entities(0, "2") == []


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.kind)
def test_versions_only_grow_across_drop_and_create(kind):
    store = kind("s")
    assert store.version(SLOTS_TABLE) == 0
    store.create_table(SLOTS_TABLE, slots_schema())
    created = store.version(SLOTS_TABLE)
    store.create_table("other", slots_schema())
    store.drop_table(SLOTS_TABLE)
    dropped = store.version(SLOTS_TABLE)
    store.create_table(SLOTS_TABLE, slots_schema())
    assert 0 < created < dropped < store.version(SLOTS_TABLE)
    assert store.version("other") not in (created, dropped)
