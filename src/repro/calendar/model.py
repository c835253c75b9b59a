"""Calendar domain model: slots and meetings.

Time is discretized into days × hourly slots (the prototype's GUI showed
clickable hour slots between two dates). A slot is identified by
``{"day": d, "hour": h}`` on the wire and ``"d<d>h<h>"`` as a store
primary key.

Slot statuses:

* ``free``     — open
* ``held``     — reserved by a *tentative* meeting (releasable/bumpable)
* ``reserved`` — reserved by a *confirmed* meeting (bumpable only by a
  strictly higher priority meeting)
* ``busy``     — blocked by the user themselves (not negotiable)

Meeting statuses mirror the paper's lifecycle: tentative meetings await
missing participants; cancellation and priority bumps trigger automatic
promotion / rescheduling. Which status a stored copy may move to is
declared once, in :data:`TRANSITIONS`; every status write checks it in
:class:`~repro.calendar.storage.CalendarStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.util.errors import CalendarError


class SlotStatus(str, Enum):
    FREE = "free"
    HELD = "held"
    RESERVED = "reserved"
    BUSY = "busy"


class MeetingStatus(str, Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    CANCELLED = "cancelled"
    BUMPED = "bumped"


#: The statuses whose meeting holds its slot at its committed users.
LIVE = (MeetingStatus.CONFIRMED, MeetingStatus.TENTATIVE)

#: stored status -> the statuses a write may put over it (§4.4: cancel is
#: final, so CANCELLED is absorbing). BUMPED is not terminal: a bump is
#: a lost slot, and only a write that reserved a slot in the same call
#: may revive it (``move_meeting``'s CONFIRMED). TENTATIVE reserves
#: nothing, so it never follows BUMPED.
TRANSITIONS = {
    MeetingStatus.TENTATIVE: frozenset(MeetingStatus),
    MeetingStatus.CONFIRMED: frozenset(MeetingStatus),
    MeetingStatus.BUMPED: frozenset(MeetingStatus) - {MeetingStatus.TENTATIVE},
    MeetingStatus.CANCELLED: frozenset({MeetingStatus.CANCELLED}),
}


def slot_id(day: int, hour: int) -> str:
    """Store primary key of a slot."""
    return f"d{day}h{hour}"


def slot_entity(day: int, hour: int) -> dict[str, int]:
    """Wire/entity form of a slot."""
    return {"day": day, "hour": hour}


def parse_slot_id(sid: str) -> dict[str, int]:
    """Inverse of :func:`slot_id`."""
    try:
        day_text, hour_text = sid[1:].split("h")
        return {"day": int(day_text), "hour": int(hour_text)}
    except (ValueError, IndexError):
        raise CalendarError(f"malformed slot id {sid!r}") from None


def entity_to_id(entity: dict[str, int]) -> str:
    """Entity dict -> primary key."""
    return slot_id(entity["day"], entity["hour"])


@dataclass(frozen=True)
class OrGroup:
    """An "at least k of these members" requirement (§5, §6: 'OR groups')."""

    members: tuple[str, ...]
    k: int

    def __post_init__(self):
        if not 0 < self.k <= len(self.members):
            raise CalendarError(
                f"or-group needs 0 < k <= {len(self.members)}, got k={self.k}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"members": list(self.members), "k": self.k}

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "OrGroup":
        return OrGroup(tuple(d["members"]), d["k"])


@dataclass
class Meeting:
    """One meeting's record (stored at the initiator and each committed
    participant — *only* their own copy, never other users' folders)."""

    meeting_id: str
    initiator: str
    title: str
    slot: dict[str, int]
    participants: list[str]               # everyone invited (incl. initiator)
    must_attend: list[str]                # hard requirements (incl. initiator)
    or_groups: list[OrGroup] = field(default_factory=list)
    supervisors: list[str] = field(default_factory=list)
    priority: int = 0
    status: MeetingStatus = MeetingStatus.TENTATIVE
    committed: list[str] = field(default_factory=list)   # who holds the slot
    missing: list[str] = field(default_factory=list)     # awaited participants
    window: tuple[int, int] = (0, 0)                     # scheduling day range
    created_at: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return {
            "meeting_id": self.meeting_id,
            "initiator": self.initiator,
            "title": self.title,
            "slot": self.slot,
            "participants": list(self.participants),
            "must_attend": list(self.must_attend),
            "or_groups": [g.to_dict() for g in self.or_groups],
            "supervisors": list(self.supervisors),
            "priority": self.priority,
            "status": self.status.value,
            "committed": list(self.committed),
            "missing": list(self.missing),
            "window": list(self.window),
            "created_at": self.created_at,
        }

    @staticmethod
    def from_row(row: dict[str, Any]) -> "Meeting":
        return Meeting(
            meeting_id=row["meeting_id"],
            initiator=row["initiator"],
            title=row["title"],
            slot=dict(row["slot"]),
            participants=list(row["participants"]),
            must_attend=list(row["must_attend"]),
            or_groups=[OrGroup.from_dict(d) for d in row["or_groups"]],
            supervisors=list(row.get("supervisors", [])),
            priority=row["priority"],
            status=MeetingStatus(row["status"]),
            committed=list(row["committed"]),
            missing=list(row["missing"]),
            window=tuple(row.get("window", (0, 0))),
            created_at=row["created_at"],
        )
