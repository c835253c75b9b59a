"""Tests for MeetingManager workflows (§4.4 / §5 scenarios)."""

import pytest

from repro.calendar.model import MeetingStatus, OrGroup
from tests.calendar.conftest import block_window
from repro.util.errors import (
    CalendarError,
    NotInitiatorError,
    SchedulingError,
)


class TestScheduleConfirmed:
    def test_basic_meeting(self, app):
        m = app.manager("phil").schedule_meeting("Budget", ["andy", "suzy"])
        assert m.status is MeetingStatus.CONFIRMED
        assert set(m.committed) == {"phil", "andy", "suzy"}
        for user in m.committed:
            row = app.calendar(user).slot_of(m.slot)
            assert row["status"] == "reserved"
            assert row["meeting_id"] == m.meeting_id
            assert app.meeting_view(user, m.meeting_id).status is MeetingStatus.CONFIRMED

    def test_earliest_common_slot_chosen(self, app):
        app.service("phil").block({"day": 0, "hour": 9})
        m = app.manager("phil").schedule_meeting("T", ["andy"], day_from=0, day_to=0)
        assert m.slot == {"day": 0, "hour": 10}

    def test_links_created(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        fwd = app.node("phil").links.links_by_context("meeting_id", m.meeting_id)
        assert any(ln.context["role"] == "forward" for ln in fwd)
        back = app.node("andy").links.links_by_context("meeting_id", m.meeting_id)
        assert [ln.context["role"] for ln in back] == ["back"]

    def test_emails_sent(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy"])
        inbox = app.mail.inbox("andy")
        assert len(inbox) == 1
        assert "confirmed" in inbox[0].subject

    def test_no_manual_intervention_required(self, app):
        """§6: scheduling requires zero human accept steps."""
        app.manager("phil").schedule_meeting("T", ["andy", "suzy", "raj"])
        assert app.mail.action_required == 0

    def test_preferred_slot(self, app):
        m = app.manager("phil").schedule_meeting(
            "T", ["andy"], preferred_slot={"day": 2, "hour": 14}
        )
        assert m.slot == {"day": 2, "hour": 14}

    def test_window_respected(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy"], day_from=3, day_to=4)
        assert 3 <= m.slot["day"] <= 4

    def test_no_slot_raises(self, app):
        block_window(app, "phil", 0, 4)
        with pytest.raises(SchedulingError):
            app.manager("andy").schedule_meeting(
                "T", ["phil"], allow_tentative=False
            )

    def test_meeting_ids_unique(self, app):
        m1 = app.manager("phil").schedule_meeting("A", ["andy"])
        m2 = app.manager("phil").schedule_meeting("B", ["andy"])
        assert m1.meeting_id != m2.meeting_id


class TestScheduleTentative:
    def test_unavailable_participant_makes_tentative(self, app):
        block_window(app, "suzy", 0, 4)
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        assert m.status is MeetingStatus.TENTATIVE
        assert m.missing == ["suzy"]
        assert set(m.committed) == {"phil", "andy"}
        # Committed slots are held, not reserved.
        assert app.calendar("phil").slot_of(m.slot)["status"] == "held"
        assert app.calendar("andy").slot_of(m.slot)["status"] == "held"

    def test_tentative_link_queued_at_missing_user(self, app):
        block_window(app, "suzy", 0, 4)
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        links = app.node("suzy").links.links_by_context("meeting_id", m.meeting_id)
        assert len(links) == 1
        assert links[0].subtype.value == "tentative"
        assert links[0].refs[0].user == "phil"
        assert links[0].refs[0].on_change == "on_participant_available"

    def test_committed_get_subscription_back_links(self, app):
        block_window(app, "suzy", 0, 4)
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        back = app.node("andy").links.links_by_context("meeting_id", m.meeting_id)
        assert [ln.ltype.value for ln in back] == ["subscription"]

    def test_promotion_when_slot_frees(self, app):
        block_window(app, "suzy", 0, 4)
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        app.service("suzy").unblock(m.slot)
        now = app.meeting_view("phil", m.meeting_id)
        assert now.status is MeetingStatus.CONFIRMED
        assert now.missing == []
        assert app.calendar("suzy").slot_of(m.slot)["status"] == "reserved"
        assert app.calendar("phil").slot_of(m.slot)["status"] == "reserved"
        assert app.manager("phil").promotions == 1

    def test_promotion_upgrades_links(self, app):
        block_window(app, "suzy", 0, 4)
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        app.service("suzy").unblock(m.slot)
        suzy_links = app.node("suzy").links.links_by_context("meeting_id", m.meeting_id)
        assert [ln.context["role"] for ln in suzy_links] == ["back"]
        assert suzy_links[0].ltype.value == "negotiation"

    def test_unblocking_other_slot_does_not_promote(self, app):
        block_window(app, "suzy", 0, 4)
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        other = {"day": m.slot["day"], "hour": m.slot["hour"] + 1}
        app.service("suzy").unblock(other)
        assert app.meeting_view("phil", m.meeting_id).status is MeetingStatus.TENTATIVE

    def test_tentative_refusals_match_first_candidate(self, app):
        """Regression: the tentative fallback must use the refusal list
        recorded at the *first* failed slot, not the last one tried."""
        # suzy blocks the earliest slot only; raj blocks everything else
        # in the window, so candidate 1 fails on suzy and the later
        # candidates fail on raj.
        app.service("suzy").block({"day": 0, "hour": 9})
        for row in app.calendar("raj").free_slots(0, 0):
            if (row["day"], row["hour"]) != (0, 9):
                app.service("raj").block({"day": row["day"], "hour": row["hour"]})
        m = app.manager("phil").schedule_meeting(
            "T", ["andy", "suzy", "raj"], day_from=0, day_to=0
        )
        assert m.status is MeetingStatus.TENTATIVE
        assert m.slot == {"day": 0, "hour": 9}
        # suzy (the refusal at slot 1) is missing; raj committed there.
        assert m.missing == ["suzy"]
        assert "raj" in m.committed

    def test_disallow_tentative(self, app):
        block_window(app, "suzy", 0, 4)
        with pytest.raises(SchedulingError):
            app.manager("phil").schedule_meeting(
                "T", ["andy", "suzy"], allow_tentative=False
            )


class TestCancel:
    def test_cancel_releases_everywhere(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        app.manager("phil").cancel_meeting(m.meeting_id)
        for user in ["phil", "andy", "suzy"]:
            assert app.calendar(user).slot_of(m.slot)["status"] == "free"
            assert app.meeting_view(user, m.meeting_id).status is MeetingStatus.CANCELLED

    def test_cancel_removes_links_everywhere(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        app.manager("phil").cancel_meeting(m.meeting_id)
        for user in ["phil", "andy", "suzy"]:
            assert app.node(user).links.links_by_context("meeting_id", m.meeting_id) == []

    def test_only_initiator_cancels(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy"])
        with pytest.raises(NotInitiatorError):
            app.manager("andy").cancel_meeting(m.meeting_id)

    def test_cancel_idempotent(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy"])
        app.manager("phil").cancel_meeting(m.meeting_id)
        again = app.manager("phil").cancel_meeting(m.meeting_id)
        assert again.status is MeetingStatus.CANCELLED

    def test_cancel_promotes_waiting_tentative(self, app):
        """§4.4: cancellation automatically converts a tentative meeting."""
        m1 = app.manager("phil").schedule_meeting("First", ["andy"], day_from=0, day_to=0)
        m2 = app.manager("suzy").schedule_meeting(
            "Second", ["raj", "andy"], preferred_slot=m1.slot
        )
        assert m2.status is MeetingStatus.TENTATIVE
        app.manager("phil").cancel_meeting(m1.meeting_id)
        assert app.meeting_view("suzy", m2.meeting_id).status is MeetingStatus.CONFIRMED
        assert app.calendar("andy").slot_of(m1.slot)["meeting_id"] == m2.meeting_id

    def test_cancel_notifies_by_email(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy"])
        app.manager("phil").cancel_meeting(m.meeting_id)
        subjects = [mail.subject for mail in app.mail.inbox("andy")]
        assert any("cancelled" in s for s in subjects)


class TestBump:
    def test_higher_priority_bumps(self, app):
        low = app.manager("phil").schedule_meeting("Low", ["andy"], priority=1,
                                                   day_from=0, day_to=0)
        high = app.manager("suzy").schedule_meeting(
            "High", ["andy"], priority=9, preferred_slot=low.slot
        )
        assert high.status is MeetingStatus.CONFIRMED
        assert app.calendar("andy").slot_of(low.slot)["meeting_id"] == high.meeting_id

    def test_equal_priority_does_not_bump(self, app):
        low = app.manager("phil").schedule_meeting("Low", ["andy"], priority=5,
                                                   day_from=0, day_to=0)
        m = app.manager("suzy").schedule_meeting(
            "Same", ["andy"], priority=5, preferred_slot=low.slot
        )
        # Falls back to tentative: andy's slot was not bumpable.
        assert m.status is MeetingStatus.TENTATIVE
        assert app.calendar("andy").slot_of(low.slot)["meeting_id"] == low.meeting_id

    def test_bumped_meeting_auto_reschedules(self, app):
        low = app.manager("phil").schedule_meeting("Low", ["andy"], priority=1,
                                                   day_from=0, day_to=1)
        app.manager("suzy").schedule_meeting(
            "High", ["andy"], priority=9, preferred_slot=low.slot
        )
        phil = app.manager("phil")
        assert app.meeting_view("phil", low.meeting_id).status is MeetingStatus.BUMPED
        new_id = phil.reschedule_map[low.meeting_id]
        new = app.meeting_view("phil", new_id)
        assert new.status is MeetingStatus.CONFIRMED
        assert new.slot != low.slot
        assert phil.reschedules == 1
        # Phil's own copy of the bumped slot was released.
        assert app.calendar("phil").slot_of(low.slot)["status"] == "free"


class TestOrGroups:
    def test_quorum_scheduling(self, app):
        for u in ["bio1", "bio2", "bio3", "bio4"]:
            app.add_user(u)
        m = app.manager("phil").schedule_meeting(
            "Faculty",
            ["andy", "bio1", "bio2", "bio3", "bio4"],
            must_attend=["andy"],
            or_groups=[OrGroup(("bio1", "bio2", "bio3", "bio4"), 2)],
        )
        assert m.status is MeetingStatus.CONFIRMED
        bio_committed = [u for u in m.committed if u.startswith("bio")]
        assert len(bio_committed) >= 2

    def test_quorum_not_met_goes_tentative(self, app):
        for u in ["bio1", "bio2"]:
            app.add_user(u)
            block_window(app, u, 0, 4)
        m = app.manager("phil").schedule_meeting(
            "Faculty",
            ["andy", "bio1", "bio2"],
            must_attend=["andy"],
            or_groups=[OrGroup(("bio1", "bio2"), 1)],
        )
        assert m.status is MeetingStatus.TENTATIVE
        assert set(m.missing) == {"bio1", "bio2"}


class TestDropOut:
    def test_must_attendee_drop_makes_tentative(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy", "suzy"])
        assert app.manager("andy").drop_out(m.meeting_id) is True
        now = app.meeting_view("phil", m.meeting_id)
        assert now.status is MeetingStatus.TENTATIVE
        assert now.missing == ["andy"]
        assert app.calendar("andy").slot_of(m.slot)["status"] == "free"
        # A tentative back link waits at andy for re-commitment.
        links = app.node("andy").links.links_by_context("meeting_id", m.meeting_id)
        assert any(ln.subtype.value == "tentative" for ln in links)

    def test_initiator_cannot_drop_out(self, app):
        m = app.manager("phil").schedule_meeting("T", ["andy"])
        with pytest.raises(CalendarError):
            app.manager("phil").drop_out(m.meeting_id)

    def test_or_group_drop_with_quorum_held(self, app):
        for u in ["b1", "b2", "b3"]:
            app.add_user(u)
        m = app.manager("phil").schedule_meeting(
            "T", ["b1", "b2", "b3"], or_groups=[OrGroup(("b1", "b2", "b3"), 2)]
        )
        committed_bios = [u for u in m.committed if u.startswith("b")]
        assert len(committed_bios) == 3
        assert app.manager("b1").drop_out(m.meeting_id) is True
        now = app.meeting_view("phil", m.meeting_id)
        assert "b1" not in now.committed
        assert now.status is MeetingStatus.CONFIRMED

    def test_or_group_drop_denied_when_quorum_breaks(self, app):
        for u in ["b1", "b2"]:
            app.add_user(u)
        m = app.manager("phil").schedule_meeting(
            "T", ["b1", "b2"], or_groups=[OrGroup(("b1", "b2"), 2)]
        )
        # Both committed, k=2: no replacement possible -> denied.
        assert app.manager("b1").drop_out(m.meeting_id) is False
        assert app.calendar("b1").slot_of(m.slot)["status"] == "reserved"

    def test_or_group_drop_with_replacement(self, app):
        for u in ["b1", "b2", "b3"]:
            app.add_user(u)
        # b3 initially unavailable at the chosen slot window start.
        block_window(app, "b3", 0, 0)
        m = app.manager("phil").schedule_meeting(
            "T",
            ["b1", "b2", "b3"],
            or_groups=[OrGroup(("b1", "b2", "b3"), 2)],
            day_from=0,
            day_to=0,
        )
        committed_bios = {u for u in m.committed if u.startswith("b")}
        assert committed_bios == {"b1", "b2"}
        # Free b3 so a replacement exists, then b1 leaves.
        app.service("b3").unblock(m.slot)
        assert app.manager("b1").drop_out(m.meeting_id) is True
        now = app.meeting_view("phil", m.meeting_id)
        assert "b3" in now.committed and "b1" not in now.committed


class TestSupervisor:
    def test_supervisor_gets_subscription_back_link(self, app):
        m = app.manager("phil").schedule_meeting(
            "T", ["andy", "suzy"], supervisors=["suzy"]
        )
        assert m.status is MeetingStatus.CONFIRMED
        links = app.node("suzy").links.links_by_context("meeting_id", m.meeting_id)
        assert [ln.ltype.value for ln in links] == ["subscription"]
        assert links[0].refs[0].on_change == "on_supervisor_changed"

    def test_supervisor_change_degrades_meeting(self, app):
        m = app.manager("phil").schedule_meeting(
            "T", ["andy", "suzy"], supervisors=["suzy"]
        )
        # Supervisor frees their slot at will (release fires subscription).
        app.service("suzy").withdraw_slot(m.slot, m.meeting_id)
        now = app.meeting_view("phil", m.meeting_id)
        assert now.status is MeetingStatus.TENTATIVE
        assert "suzy" in now.missing

    def test_supervisor_rebooking_promotes_again(self, app):
        m = app.manager("phil").schedule_meeting(
            "T", ["andy", "suzy"], supervisors=["suzy"]
        )
        app.service("suzy").withdraw_slot(m.slot, m.meeting_id)
        # The degrade queued a tentative link at suzy; freeing again fires it.
        assert app.meeting_view("phil", m.meeting_id).status is MeetingStatus.TENTATIVE
        # suzy's slot is already free; the tentative link fires on the
        # next availability change; simulate by re-running fire.
        app.service("suzy")._fire_availability(m.slot)
        assert app.meeting_view("phil", m.meeting_id).status is MeetingStatus.CONFIRMED
