"""Global consistency auditing for a calendar deployment.

The invariants the coordination-link protocols guarantee, as a library
feature: run :func:`audit_world` after any workload and act on the
returned violations (the soak/property tests use the same checks).

Checked invariants:

* **locks** — no negotiation lock survives outside a negotiation;
* **slot→meeting** — every occupied slot names a meeting that exists at
  that user, with a live status;
* **views-agree** — all committed participants of a confirmed meeting
  agree on its slot and hold the matching reservation;
* **cancelled-clean** — cancelled meetings hold no slots and no links
  anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.calendar.model import LIVE, MeetingStatus
from repro.datastore.predicate import where

if TYPE_CHECKING:  # pragma: no cover
    from repro.calendar.app import SyDCalendarApp


@dataclass(frozen=True)
class Violation:
    """One audit finding."""

    rule: str
    user: str
    subject: str     # meeting id / slot id / lock entity
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.user} {self.subject}: {self.detail}"


def audit_world(app: "SyDCalendarApp") -> list[Violation]:
    """Run every invariant over every user; returns all violations."""
    violations: list[Violation] = []
    violations.extend(check_locks(app))
    violations.extend(check_slot_meeting_consistency(app))
    violations.extend(check_confirmed_views_agree(app))
    violations.extend(check_cancelled_clean(app))
    return violations


def check_locks(app: "SyDCalendarApp") -> list[Violation]:
    """No leaked negotiation locks."""
    out = []
    for user in app.users:
        count = app.node(user).locks.locked_count()
        if count:
            out.append(
                Violation("locks", user, "-", f"{count} lock(s) held outside a negotiation")
            )
    return out


def check_slot_meeting_consistency(app: "SyDCalendarApp") -> list[Violation]:
    """Occupied slots point at live meetings the user holds a copy of."""
    out = []
    for user in app.users:
        cal = app.calendar(user)
        occupied = cal.store.select("slots", where("status").isin(["reserved", "held"]))
        for row in occupied:
            mid = row["meeting_id"]
            if mid is None:
                out.append(
                    Violation("slot-meeting", user, row["slot_id"], "occupied without a meeting id")
                )
                continue
            if not cal.has_meeting(mid):
                out.append(
                    Violation("slot-meeting", user, row["slot_id"], f"unknown meeting {mid}")
                )
                continue
            status = cal.meeting(mid).status
            if status not in LIVE:
                out.append(
                    Violation(
                        "slot-meeting", user, row["slot_id"],
                        f"slot held by {status.value} meeting {mid}",
                    )
                )
    return out


def check_confirmed_views_agree(app: "SyDCalendarApp") -> list[Violation]:
    """Committed participants of confirmed meetings agree with the initiator."""
    out = []
    for user in app.users:
        for meeting in app.calendar(user).meetings(MeetingStatus.CONFIRMED):
            if meeting.initiator != user:
                continue
            for member in meeting.committed:
                if member not in app.users:
                    continue
                view = app.meeting_view(member, meeting.meeting_id)
                if view is None:
                    out.append(
                        Violation("views-agree", member, meeting.meeting_id, "no copy")
                    )
                    continue
                if view.slot != meeting.slot:
                    out.append(
                        Violation(
                            "views-agree", member, meeting.meeting_id,
                            f"slot {view.slot} != initiator's {meeting.slot}",
                        )
                    )
                row = app.calendar(member).slot_of(meeting.slot)
                if row["meeting_id"] != meeting.meeting_id:
                    out.append(
                        Violation(
                            "views-agree", member, meeting.meeting_id,
                            f"slot row holds {row['meeting_id']!r}",
                        )
                    )
    return out


def check_cancelled_clean(app: "SyDCalendarApp") -> list[Violation]:
    """Cancelled meetings leave neither slots nor links behind."""
    out = []
    cancelled: set[str] = set()
    for user in app.users:
        for meeting in app.calendar(user).meetings(MeetingStatus.CANCELLED):
            if meeting.initiator == user:
                cancelled.add(meeting.meeting_id)
    for user in app.users:
        cal = app.calendar(user)
        for mid in cancelled:
            holders = cal.slots_of_meeting(mid)
            if holders:
                out.append(
                    Violation(
                        "cancelled-clean", user, mid,
                        f"still holds slot(s) {[r['slot_id'] for r in holders]}",
                    )
                )
        for link in app.node(user).links.all_links():
            mid = link.context.get("meeting_id")
            if mid in cancelled:
                out.append(
                    Violation("cancelled-clean", user, mid, f"link {link.link_id} survives")
                )
    return out
