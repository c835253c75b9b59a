"""The meeting-status transition table, enforced where status writes land.

Every status write — the initiator's distribution and broadcasts, a
participant's pushed copy writes, the BUMPED mark of a slot change and
reconcile's adoptions — goes through ``CalendarStore.put_meeting`` or
``CalendarStore.set_meeting_status``, which check the *stored* status.
"""

import itertools

import pytest

from repro.calendar.model import Meeting, MeetingStatus, OrGroup
from repro.calendar.storage import CalendarStore
from repro.datastore.store import RelationalStore

S = MeetingStatus

#: (stored, written) pairs the table refuses; every other pair applies.
#: CANCELLED is absorbing (§4.4: cancel is final); a BUMPED meeting may
#: be re-reserved (a move's CONFIRMED) or cancelled, never degraded.
REFUSED = {
    (S.CANCELLED, S.TENTATIVE),
    (S.CANCELLED, S.CONFIRMED),
    (S.CANCELLED, S.BUMPED),
    (S.BUMPED, S.TENTATIVE),
}

PAIRS = list(itertools.product(S, S))


def _calendar_with(status):
    cal = CalendarStore(RelationalStore("phil"), days=1, day_start=9, day_end=10)
    cal.put_meeting(
        Meeting("m1", "phil", "t", {"day": 0, "hour": 9}, ["phil"], ["phil"], status=status)
    )
    return cal


@pytest.mark.parametrize("old, new", PAIRS, ids=[f"{a.value}-{b.value}" for a, b in PAIRS])
def test_put_meeting_follows_the_table(old, new):
    cal = _calendar_with(old)
    meeting = cal.meeting("m1")
    meeting.status, meeting.title = new, "rewritten"
    applied = cal.put_meeting(meeting)
    assert applied is ((old, new) not in REFUSED)
    stored = cal.meeting("m1")
    assert stored.status is (new if applied else old)
    assert stored.title == ("rewritten" if applied else "t")


@pytest.mark.parametrize("old, new", PAIRS, ids=[f"{a.value}-{b.value}" for a, b in PAIRS])
def test_set_meeting_status_follows_the_table(old, new):
    cal = _calendar_with(old)
    applied = cal.set_meeting_status("m1", new)
    assert applied is ((old, new) not in REFUSED)
    assert cal.meeting("m1").status is (new if applied else old)


def test_a_new_meeting_row_always_applies():
    cal = _calendar_with(S.CANCELLED)
    fresh = Meeting("m2", "phil", "t", {"day": 0, "hour": 9}, ["phil"], ["phil"])
    assert cal.put_meeting(fresh)
    assert cal.meeting("m2").status is S.TENTATIVE


@pytest.fixture
def cancelled(app):
    """A cancelled phil/andy meeting (suzy supervises) and its slot."""
    m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"], supervisors=["suzy"])
    app.manager("phil").cancel_meeting(m.meeting_id)
    return m


def _messages(app):
    return app.world.stats.messages


def test_cancelled_copy_ignores_late_pushes(app, cancelled):
    andy = app.service("andy")
    late = dict(cancelled.to_row(), status="tentative")
    andy.store_meeting(late)
    assert andy.set_meeting_status(cancelled.meeting_id, "confirmed") is False
    copy = app.calendar("andy").meeting(cancelled.meeting_id)
    assert copy.status is S.CANCELLED


def test_drop_request_on_cancelled_meeting_is_granted_silently(app, cancelled):
    before, inbox = _messages(app), len(app.mail.inbox("andy"))
    verdict = app.manager("phil").handle_drop_request(cancelled.meeting_id, "andy")
    assert verdict["granted"] is True
    assert _messages(app) == before
    assert len(app.mail.inbox("andy")) == inbox
    assert app.calendar("phil").meeting(cancelled.meeting_id).status is S.CANCELLED
    assert not app.node("andy").links.links_by_context("meeting_id", cancelled.meeting_id)


def test_or_group_drop_on_cancelled_meeting_negotiates_nothing(app):
    group = OrGroup(("andy", "suzy", "raj"), 3)
    m = app.manager("phil").schedule_meeting("Q", ["andy", "suzy", "raj"], or_groups=[group])
    app.manager("phil").cancel_meeting(m.meeting_id)
    before = _messages(app)
    verdict = app.manager("phil").handle_drop_request(m.meeting_id, "andy")
    assert verdict["granted"] is True
    assert _messages(app) == before
    for user in ("phil", "andy", "suzy", "raj"):
        assert app.calendar(user).slots_of_meeting(m.meeting_id) == []


def test_bump_notice_for_cancelled_meeting_does_not_reschedule(app, cancelled):
    manager = app.manager("phil")
    before = _messages(app)
    app.service("phil").on_meeting_bumped(
        cancelled.meeting_id, {"user": "andy", "entity": cancelled.slot}
    )
    assert manager.reschedules == 0 and manager.reschedule_map == {}
    assert _messages(app) == before
    assert [m.meeting_id for m in app.calendar("phil").meetings()] == [cancelled.meeting_id]
    assert app.calendar("phil").meeting(cancelled.meeting_id).status is S.CANCELLED


def test_supervisor_change_on_cancelled_meeting_is_a_noop(app, cancelled):
    before, mail = _messages(app), len(app.mail.inbox("andy"))
    app.service("phil").on_supervisor_changed(
        cancelled.slot, {"meeting_id": cancelled.meeting_id, "user": "suzy"}
    )
    assert _messages(app) == before
    assert len(app.mail.inbox("andy")) == mail
    stored = app.calendar("phil").meeting(cancelled.meeting_id)
    assert stored.status is S.CANCELLED and "suzy" in stored.committed


def test_drop_request_does_not_revive_a_bumped_meeting(app):
    low = app.manager("andy").schedule_meeting(
        "low", ["phil"], priority=0, preferred_slot={"day": 1, "hour": 10}
    )
    app.manager("suzy").schedule_meeting(
        "high", ["phil"], priority=5, preferred_slot={"day": 1, "hour": 10}
    )
    assert app.calendar("andy").meeting(low.meeting_id).status is S.BUMPED
    verdict = app.manager("andy").handle_drop_request(low.meeting_id, "phil")
    assert verdict["granted"] is True
    assert app.calendar("andy").meeting(low.meeting_id).status is S.BUMPED


def test_taking_a_slot_of_a_cancelled_meeting_sends_no_bump_notice(app, cancelled):
    # andy's release of the cancelled meeting was lost: the slot still
    # names it, so a higher-priority negotiation takes it from there.
    app.service("andy").direct_write_slot(cancelled.slot, cancelled.meeting_id)
    notices = []
    app.node("phil").events.on_local("calendar.meeting_bumped", lambda t, p: notices.append(p))
    app.manager("suzy").schedule_meeting(
        "high", ["andy"], priority=5, preferred_slot=cancelled.slot
    )
    assert app.calendar("andy").slot_of(cancelled.slot)["meeting_id"] != cancelled.meeting_id
    assert notices == []
    assert app.calendar("andy").meeting(cancelled.meeting_id).status is S.CANCELLED
