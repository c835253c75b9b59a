"""Per-user calendar storage.

Each user's device store holds two application tables (besides the SyD
link tables): ``slots`` — one row per day/hour slot — and ``meetings`` —
this user's own copy of each meeting they are involved in. Storage is
O(own data) per user, one of the §6 claims benchmarked in E8.

Works over any :class:`~repro.datastore.store.DataStore` kind.
"""

from __future__ import annotations

from typing import Any

from repro.datastore.predicate import where
from repro.datastore.schema import Column, ColumnType, schema
from repro.datastore.store import DataStore
from repro.calendar.model import (
    TRANSITIONS,
    Meeting,
    MeetingStatus,
    SlotStatus,
    entity_to_id,
    slot_id,
)
from repro.util.errors import CalendarError

SLOTS_TABLE = "slots"
MEETINGS_TABLE = "meetings"

DEFAULT_DAYS = 5
DEFAULT_DAY_START = 9   # 09:00
DEFAULT_DAY_END = 17    # last slot starts 16:00


def slots_schema():
    return schema(
        "slot_id",
        slot_id=ColumnType.STR,
        day=ColumnType.INT,
        hour=ColumnType.INT,
        status=Column("", ColumnType.STR, default=SlotStatus.FREE.value),
        meeting_id=Column("", ColumnType.STR, nullable=True),
        priority=Column("", ColumnType.INT, default=0),
        note=Column("", ColumnType.STR, nullable=True),
    )


def meetings_schema():
    return schema(
        "meeting_id",
        meeting_id=ColumnType.STR,
        initiator=ColumnType.STR,
        title=ColumnType.STR,
        slot=ColumnType.JSON,
        participants=ColumnType.JSON,
        must_attend=ColumnType.JSON,
        or_groups=ColumnType.JSON,
        supervisors=ColumnType.JSON,
        priority=ColumnType.INT,
        status=ColumnType.STR,
        committed=ColumnType.JSON,
        missing=ColumnType.JSON,
        window=ColumnType.JSON,
        created_at=ColumnType.FLOAT,
    )


class CalendarStore:
    """Typed access to one user's calendar tables."""

    def __init__(
        self,
        store: DataStore,
        *,
        days: int = DEFAULT_DAYS,
        day_start: int = DEFAULT_DAY_START,
        day_end: int = DEFAULT_DAY_END,
    ):
        if not 0 <= day_start < day_end <= 24:
            raise CalendarError(f"bad working hours [{day_start}, {day_end})")
        self.store = store
        self.days = days
        self.day_start = day_start
        self.day_end = day_end
        #: (store, slots version) the free-slot view was built at
        self._free_key: tuple[DataStore, int] | None = None
        self._free_view: list[dict[str, Any]] = []
        if not store.has_table(SLOTS_TABLE):
            store.create_table(SLOTS_TABLE, slots_schema())
            for day in range(days):
                for hour in range(day_start, day_end):
                    store.insert(
                        SLOTS_TABLE, {"slot_id": slot_id(day, hour), "day": day, "hour": hour}
                    )
        if not store.has_table(MEETINGS_TABLE):
            store.create_table(MEETINGS_TABLE, meetings_schema())

    # -- slots -------------------------------------------------------------------

    def slot(self, sid: str) -> dict[str, Any]:
        row = self.store.get(SLOTS_TABLE, sid)
        if row is None:
            raise CalendarError(f"no slot {sid!r}")
        return row

    def slot_of(self, entity: dict[str, int]) -> dict[str, Any]:
        return self.slot(entity_to_id(entity))

    def free_slots(self, day_from: int, day_to: int) -> list[dict[str, Any]]:
        """Free slots with ``day_from <= day <= day_to``, chronological.

        Served from a view of every free slot that is rebuilt only when
        the slots table's :meth:`~repro.datastore.store.DataStore.version`
        moves; each call returns fresh row copies.
        """
        return [dict(r) for r in self._free_window(day_from, day_to)]

    def free_entities(self, day_from: int, day_to: int) -> list[dict[str, int]]:
        """The ``{"day", "hour"}`` entities of :meth:`free_slots`, same order."""
        return [{"day": r["day"], "hour": r["hour"]} for r in self._free_window(day_from, day_to)]

    def _free_window(self, day_from: int, day_to: int) -> list[dict[str, Any]]:
        """The view's own rows in the day window (callers must not mutate)."""
        key = (self.store, self.store.version(SLOTS_TABLE))
        if self._free_key != key:
            rows = self.store.select(SLOTS_TABLE, where("status") == SlotStatus.FREE.value)
            # select returns pk order; the stable sort keeps it among ties.
            rows.sort(key=lambda r: (r["day"], r["hour"]))
            self._free_key, self._free_view = key, rows
        try:
            return [r for r in self._free_view if day_from <= r["day"] <= day_to]
        except TypeError:  # a non-numeric bound matches no row, as in a predicate
            return []

    def set_slot(
        self,
        sid: str,
        status: SlotStatus,
        meeting_id: str | None = None,
        priority: int = 0,
        note: str | None = None,
    ) -> dict[str, Any]:
        """Set a slot's occupancy."""
        n = self.store.update(
            SLOTS_TABLE,
            where("slot_id") == sid,
            {
                "status": status.value,
                "meeting_id": meeting_id,
                "priority": priority,
                "note": note,
            },
        )
        if n == 0:
            raise CalendarError(f"no slot {sid!r}")
        return self.slot(sid)

    def release_slot(self, sid: str) -> dict[str, Any]:
        """Back to free."""
        return self.set_slot(sid, SlotStatus.FREE)

    def block_slot(self, sid: str, note: str = "busy") -> dict[str, Any]:
        """User blocks their own time (not negotiable)."""
        return self.set_slot(sid, SlotStatus.BUSY, note=note)

    def slots_of_meeting(self, meeting_id: str) -> list[dict[str, Any]]:
        return self.store.select(SLOTS_TABLE, where("meeting_id") == meeting_id)

    def occupancy(self) -> float:
        """Fraction of slots that are not free."""
        total = self.store.count(SLOTS_TABLE)
        free = self.store.count(SLOTS_TABLE, where("status") == SlotStatus.FREE.value)
        return (total - free) / total if total else 0.0

    # -- meetings ------------------------------------------------------------------

    def put_meeting(self, meeting: Meeting) -> bool:
        """Insert or overwrite this user's copy of a meeting; False, with
        nothing written, when ``TRANSITIONS`` refuses the stored status."""
        row = self.store.get(MEETINGS_TABLE, meeting.meeting_id)
        if row is not None and meeting.status not in TRANSITIONS[MeetingStatus(row["status"])]:
            return False
        self.store.put(MEETINGS_TABLE, meeting.to_row())
        return True

    def meeting(self, meeting_id: str) -> Meeting:
        row = self.store.get(MEETINGS_TABLE, meeting_id)
        if row is None:
            raise CalendarError(f"no meeting {meeting_id!r} in this calendar")
        return Meeting.from_row(row)

    def has_meeting(self, meeting_id: str) -> bool:
        return self.store.get(MEETINGS_TABLE, meeting_id) is not None

    def meetings(self, status: MeetingStatus | None = None) -> list[Meeting]:
        pred = where("status") == status.value if status else None
        return [Meeting.from_row(r) for r in self.store.select(MEETINGS_TABLE, pred)]

    def set_meeting_status(self, meeting_id: str, status: MeetingStatus) -> bool:
        """Set a stored copy's status, or False as :meth:`put_meeting`."""
        if status not in TRANSITIONS[self.meeting(meeting_id).status]:
            return False
        self.store.update(
            MEETINGS_TABLE, where("meeting_id") == meeting_id, {"status": status.value}
        )
        return True

    def storage_bytes(self) -> int:
        """Store footprint (E8 metric)."""
        return self.store.storage_bytes()
