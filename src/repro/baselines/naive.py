"""Naive query-then-write scheduling (no coordination links).

Paper §5: "After finding an empty slot, the meeting can only be
tentatively scheduled, because during the delay between the enquiry for
the empty slots and the actual scheduling, the status of the
participants may have changed." — the race that negotiation links close.

:class:`NaiveScheduler` runs over the *same* SyD world as the calendar
application but schedules the way a pre-SyD client would: query
everyone's free slots, pick one, then write reservations directly with
no mark/lock phase. :class:`InterleavedDriver` induces the race by
letting several initiators complete their *enquiry* phase before any of
them writes — exactly the paper's "delay". Experiment E10 counts the
double bookings this produces, against zero for the negotiation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.calendar.app import SyDCalendarApp
from repro.calendar.scheduler import find_common_free_slots
from repro.util.errors import NetworkError, SchedulingError
from repro.util.idgen import IdGenerator


@dataclass
class NaivePlan:
    """An enquiry result waiting to be written (the race window)."""

    initiator: str
    meeting_id: str
    title: str
    participants: list[str]
    slot: dict[str, int]
    written: bool = False


class NaiveScheduler:
    """Query-then-write scheduling for one initiator."""

    def __init__(self, app: SyDCalendarApp, initiator: str):
        self.app = app
        self.initiator = initiator
        self._ids = IdGenerator()

    def enquire(
        self,
        title: str,
        participants: Sequence[str],
        day_from: int = 0,
        day_to: Optional[int] = None,
    ) -> NaivePlan:
        """Phase 1: find a common free slot (everyone *looks* free now)."""
        day_to = self.app.days - 1 if day_to is None else day_to
        users = list(dict.fromkeys([self.initiator, *participants]))
        engine = self.app.node(self.initiator).engine
        slots = find_common_free_slots(engine, users, day_from, day_to)
        if not slots:
            raise SchedulingError(f"no common free slot for {users}")
        return NaivePlan(
            initiator=self.initiator,
            meeting_id=self._ids.next(f"naive-{self.initiator}"),
            title=title,
            participants=users,
            slot=slots[0],
        )

    def write(self, plan: NaivePlan) -> bool:
        """Phase 2: write the reservation everywhere — last write wins.

        Always "succeeds" from the initiator's point of view, which is
        precisely the problem.
        """
        engine = self.app.node(self.initiator).engine
        for user in plan.participants:
            try:
                engine.execute(
                    user,
                    "calendar",
                    "direct_write_slot",
                    plan.slot,
                    plan.meeting_id,
                    0,
                    plan.title,
                )
            except NetworkError:
                continue
        plan.written = True
        return True

    def schedule(self, title: str, participants: Sequence[str], **kw) -> NaivePlan:
        """Enquire and write back-to-back (still racy under concurrency)."""
        plan = self.enquire(title, participants, **kw)
        self.write(plan)
        return plan


@dataclass
class RaceReport:
    """What an interleaved run produced."""

    believed_successes: int = 0
    double_booked_slots: int = 0
    conflicting_meetings: int = 0
    plans: list[NaivePlan] = field(default_factory=list)


def run_interleaved_naive(
    app: SyDCalendarApp,
    requests: list[tuple[str, list[str]]],
    *,
    day_from: int = 0,
    day_to: Optional[int] = None,
) -> RaceReport:
    """Drive the race: all enquiries first, then all writes.

    ``requests``: (initiator, participants) pairs that overlap on some
    participant. Returns the damage report.
    """
    report = RaceReport()
    plans = []
    for i, (initiator, participants) in enumerate(requests):
        scheduler = NaiveScheduler(app, initiator)
        try:
            plan = scheduler.enquire(
                f"naive-{i}", participants, day_from=day_from, day_to=day_to
            )
            plans.append((scheduler, plan))
        except SchedulingError:
            continue
    for scheduler, plan in plans:
        scheduler.write(plan)
        report.believed_successes += 1
        report.plans.append(plan)

    # Audit: for every user+slot, how many initiators believe they own it?
    claims: dict[tuple[str, int, int], set[str]] = {}
    for plan in report.plans:
        for user in plan.participants:
            key = (user, plan.slot["day"], plan.slot["hour"])
            claims.setdefault(key, set()).add(plan.meeting_id)
    overclaimed = {k: v for k, v in claims.items() if len(v) > 1}
    report.double_booked_slots = len(overclaimed)
    report.conflicting_meetings = len(
        {mid for mids in overclaimed.values() for mid in mids}
    )
    return report


def run_interleaved_syd(
    app: SyDCalendarApp,
    requests: list[tuple[str, list[str]]],
    *,
    day_from: int = 0,
    day_to: Optional[int] = None,
) -> RaceReport:
    """The same contention pattern through negotiation links.

    Enquiries and reservations cannot be split here — the negotiation
    *is* the write, and locks serialize it — so concurrent requests
    simply contend and the losers land on other slots or go tentative.
    """
    from repro.calendar.model import LIVE

    report = RaceReport()
    meeting_ids = []
    for i, (initiator, participants) in enumerate(requests):
        try:
            m = app.manager(initiator).schedule_meeting(
                f"syd-{i}", participants, day_from=day_from, day_to=day_to
            )
            if m.status in LIVE:
                report.believed_successes += 1
                meeting_ids.append(m.meeting_id)
        except SchedulingError:
            continue

    claims: dict[tuple[str, int, int], set[str]] = {}
    for user in app.users:
        cal = app.calendar(user)
        for meeting in cal.meetings():
            if meeting.meeting_id not in meeting_ids:
                continue
            if user not in meeting.committed:
                continue
            row = cal.slot_of(meeting.slot)
            if row["meeting_id"] == meeting.meeting_id:
                key = (user, meeting.slot["day"], meeting.slot["hour"])
                claims.setdefault(key, set()).add(meeting.meeting_id)
    overclaimed = {k: v for k, v in claims.items() if len(v) > 1}
    report.double_booked_slots = len(overclaimed)
    report.conflicting_meetings = len(
        {mid for mids in overclaimed.values() for mid in mids}
    )
    return report
