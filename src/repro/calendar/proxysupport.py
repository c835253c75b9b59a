"""Calendar service over a proxy replica (paper §5.2 meets §5).

When a calendar device is down, its proxy answers with a
:class:`CalendarReadFacade` built on the replica store: queries work
(peers can still see the user's free/busy view), but the negotiation
verbs refuse — a disconnected user cannot *commit* to new meetings, so
scheduling attempts involving them degrade to tentative meetings, which
is exactly the §5 behaviour for unavailable participants.

Register with a proxy host via::

    host.register_factory("calendar", calendar_proxy_factory)
"""

from __future__ import annotations

from typing import Any

from repro.calendar.model import MeetingStatus
from repro.calendar.storage import CalendarStore, MEETINGS_TABLE, SLOTS_TABLE
from repro.datastore.store import DataStore
from repro.device.object import SyDDeviceObject, exported
from repro.util.errors import CalendarError


class CalendarReadFacade(SyDDeviceObject):
    """Read-only calendar surface served by a proxy."""

    def __init__(self, user: str, replica: DataStore):
        super().__init__(f"{user}_calendar_SyD", replica)
        self.user = user
        if not (replica.has_table(SLOTS_TABLE) and replica.has_table(MEETINGS_TABLE)):
            raise CalendarError(
                f"replica of {user!r} lacks calendar tables; enroll after setup"
            )
        # Reuse CalendarStore's typed accessors over the replica. The
        # replica was imported from a snapshot, so tables already exist.
        self.calendar = CalendarStore(replica)

    # -- queries (served from the replica) -------------------------------------

    @exported
    def query_free_slots(self, day_from: int, day_to: int) -> list[dict[str, int]]:
        """Free slots per the last synced replica state."""
        return self.calendar.free_entities(day_from, day_to)

    @exported
    def get_slot(self, entity: dict[str, int]) -> dict[str, Any]:
        return self.calendar.slot_of(entity)

    @exported
    def get_meeting(self, meeting_id: str) -> dict[str, Any] | None:
        if self.calendar.has_meeting(meeting_id):
            return self.calendar.meeting(meeting_id).to_row()
        return None

    @exported
    def list_meetings(self, status: str | None = None) -> list[dict[str, Any]]:
        st = MeetingStatus(status) if status else None
        return [m.to_row() for m in self.calendar.meetings(st)]

    # -- negotiation verbs: a disconnected user cannot commit --------------------

    @exported
    def mark(self, entity: dict[str, int], txn_id: str, *args: Any) -> bool:
        """Refuse: availability cannot be locked while the owner is away."""
        return False

    @exported
    def unmark(self, entity: dict[str, int], txn_id: str) -> bool:
        """Nothing is ever locked here."""
        return False

    # -- passive updates the proxy may accept ------------------------------------

    @exported
    def store_meeting(self, row: dict[str, Any]) -> None:
        """Accept a meeting-copy update (journaled; replayed at handback)."""
        from repro.calendar.model import Meeting

        self.calendar.put_meeting(Meeting.from_row(row))

    @exported
    def set_meeting_status(self, meeting_id: str, status: str) -> bool:
        if not self.calendar.has_meeting(meeting_id):
            return False
        self.calendar.set_meeting_status(meeting_id, MeetingStatus(status))
        return True

    @exported
    def release_slot(self, entity: dict[str, int], meeting_id: str) -> bool:
        """Record a release (journaled). No availability triggers fire at
        the proxy — the device fires them itself after handback replay."""
        from repro.calendar.model import entity_to_id

        sid = entity_to_id(entity)
        row = self.calendar.slot(sid)
        if row["meeting_id"] != meeting_id:
            return False
        self.calendar.release_slot(sid)
        return True


def calendar_proxy_factory(user: str, replica: DataStore) -> CalendarReadFacade:
    """Factory for :meth:`ProxyHost.register_factory`."""
    return CalendarReadFacade(user, replica)
