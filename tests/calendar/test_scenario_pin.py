"""Pinned §5 scenario: the lifecycle paths the chaos workload never takes.

Chaos episodes schedule, cancel, block and drop out, but never use
or-groups, supervisors or delegation. This script drives those paths
end to end in one world and pins what they put on the wire: every
message leg (arrival time, endpoints, kind, object.method, size) plus
the final ``StatsSnapshot`` and virtual time. A behaviour-preserving
refactor of the calendar layer keeps the digest; a deliberate protocol
change re-baselines it and says why.

The published method sets of the calendar device object and of its
proxy facade are pinned separately: they are registered with the
directory at setup, and the size-charged latency model turns any change
to them into a change of virtual time.
"""

import dataclasses
import hashlib

from repro import SyDWorld
from repro.calendar.app import SyDCalendarApp
from repro.calendar.model import OrGroup
from repro.calendar.proxysupport import CalendarReadFacade
from repro.calendar.service import CalendarService
from tests.calendar.conftest import block_window

SCENARIO_DIGEST = "8a5f8e0f6b9593d8bbf3883549e46d041984275fa1f7b295d5651607ce3b6a1d"

SERVICE_METHODS = [
    "block", "change", "direct_write_slot", "get_meeting", "get_slot",
    "list_meetings", "mark", "move_requested", "on_meeting_bumped",
    "on_participant_available", "on_peer_change", "on_supervisor_changed",
    "query_free_slots", "release_ghost_slots", "release_slot",
    "release_txn_locks", "request_drop_out", "schedule_as_delegate",
    "set_meeting_status", "store_meeting", "unblock", "unmark",
    "withdraw_slot",
]

FACADE_METHODS = [
    "get_meeting", "get_slot", "list_meetings", "mark", "query_free_slots",
    "release_slot", "set_meeting_status", "store_meeting", "unmark",
]


def _detail(msg) -> str:
    if msg.kind == "invoke" and not msg.is_reply:
        return f"{msg.payload.get('object')}.{msg.payload.get('method')}"
    if msg.kind.startswith("event.") and not msg.is_reply:
        return str(msg.payload.get("topic"))
    return ""


def run_scenario():
    """Drive the scripted scenario; returns (legs, outcomes, world)."""
    world = SyDWorld(seed=11)
    legs = []
    world.transport.taps.append(
        lambda msg: legs.append(
            (repr(world.now), msg.src, msg.dst, msg.kind, _detail(msg),
             msg.is_reply, msg.size_bytes)
        )
    )
    app = SyDCalendarApp(world)
    for user in ["phil", "andy", "suzy", "raj", "b1", "b2", "b3", "boss", "staff"]:
        app.add_user(user)
    mgr = app.manager
    out = {}

    # Or-group quorum that cannot be met: b1 and b2 refuse every slot of
    # day 0, so the full-strength attempt fails and the tentative hold
    # keeps the or-group with fewer than k members left.
    block_window(app, "b1", 0, 0)
    block_window(app, "b2", 0, 0)
    faculty = mgr("phil").schedule_meeting(
        "Faculty", ["andy", "b1", "b2", "b3"], must_attend=["andy"],
        or_groups=[OrGroup(("b1", "b2", "b3"), 2)], day_from=0, day_to=0,
    )
    out["faculty"] = (faculty.status.value, faculty.missing, faculty.committed)
    slot = faculty.slot

    # b1 frees the slot: its tentative link promotes the meeting.
    app.service("b1").unblock(slot)
    out["promoted"] = app.meeting_view("phil", faculty.meeting_id).status.value

    # Or-group drop-out: b3 leaving breaks the quorum and b2 is blocked,
    # so it is denied; once b2 is free, b2 replaces b3.
    out["drop_denied"] = mgr("b3").drop_out(faculty.meeting_id)
    app.service("b2").unblock(slot)
    out["drop_replaced"] = mgr("b3").drop_out(faculty.meeting_id)
    now = app.meeting_view("phil", faculty.meeting_id)
    out["after_replacement"] = (now.status.value, now.committed)

    # A must-attendee drop-out degrades the meeting to tentative.
    out["must_drop"] = mgr("andy").drop_out(faculty.meeting_id)
    now = app.meeting_view("phil", faculty.meeting_id)
    out["after_must_drop"] = (now.status.value, "andy" in now.missing)

    # Supervisor change: suzy withdraws, the meeting degrades; her
    # queued tentative link promotes it again.
    review = mgr("phil").schedule_meeting(
        "Review", ["suzy", "raj"], supervisors=["suzy"], day_from=1, day_to=1
    )
    app.service("suzy").withdraw_slot(review.slot, review.meeting_id)
    out["supervised"] = app.meeting_view("phil", review.meeting_id).status.value
    app.service("suzy")._fire_availability(review.slot)
    out["supervisor_back"] = app.meeting_view("phil", review.meeting_id).status.value

    # Bump with automatic rescheduling.
    low = mgr("raj").schedule_meeting(
        "Low", ["andy"], priority=1, day_from=2, day_to=3
    )
    high = mgr("suzy").schedule_meeting(
        "High", ["andy"], priority=9, preferred_slot=low.slot
    )
    replacement = mgr("raj").reschedule_map[low.meeting_id]
    out["bump"] = (
        high.status.value,
        app.meeting_view("raj", low.meeting_id).status.value,
        app.meeting_view("raj", replacement).status.value,
        app.calendar("raj").slot_of(low.slot)["status"],
    )

    # Moves: explicit, refused, next-available, and a participant request.
    moved = mgr("raj").move_meeting(replacement, {"day": 4, "hour": 14})
    out["moved"] = moved.slot
    app.service("andy").block({"day": 4, "hour": 15})
    out["move_refused"] = mgr("raj").move_meeting(replacement, {"day": 4, "hour": 15})
    out["move_next"] = mgr("raj").move_meeting(replacement).slot
    out["move_requested"] = mgr("andy").request_move(
        replacement, {"day": 4, "hour": 10}
    )

    # Delegation: staff schedules with boss's authority, with an or-group.
    mgr("boss").delegate_to("staff")
    on_behalf = mgr("staff").schedule_on_behalf(
        "boss", "Board", ["andy", "b1", "b2"],
        or_groups=[OrGroup(("b1", "b2"), 1)], day_from=3, day_to=4,
    )
    out["on_behalf"] = (on_behalf.initiator, on_behalf.status.value)
    # b1 leaving the board's or-group keeps its quorum: granted outright.
    out["quorum_holds"] = mgr("b1").drop_out(on_behalf.meeting_id)
    mgr("boss").revoke_delegation("staff")
    out["revoked"] = mgr("boss").is_delegate("staff")

    # Cancel the board meeting and the tentative faculty meeting.
    mgr("boss").cancel_meeting(on_behalf.meeting_id)
    mgr("phil").cancel_meeting(faculty.meeting_id)
    world.run_for(5.0)
    return legs, out, world


def _digest(legs, out, world) -> str:
    snapshot = world.stats.snapshot()
    snap = dataclasses.asdict(snapshot)
    snap["by_kind"] = sorted(snapshot.by_kind.items())
    blob = repr((legs, sorted(out.items()), sorted(snap.items()), repr(world.now)))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_scenario_reaches_every_path():
    _legs, out, _world = run_scenario()
    assert out["faculty"] == ("tentative", ["b1", "b2"], ["phil", "andy", "b3"])
    assert out["promoted"] == "confirmed"
    assert out["drop_denied"] is False
    assert out["drop_replaced"] is True
    assert out["after_replacement"] == ("confirmed", ["phil", "andy", "b1", "b2"])
    assert out["must_drop"] is True
    assert out["after_must_drop"] == ("tentative", True)
    assert out["supervised"] == "tentative"
    assert out["supervisor_back"] == "confirmed"
    assert out["bump"] == ("confirmed", "bumped", "confirmed", "free")
    assert out["moved"] == {"day": 4, "hour": 14}
    assert out["move_refused"] is None
    assert out["move_requested"] is True
    assert out["on_behalf"] == ("boss", "confirmed")
    assert out["quorum_holds"] is True
    assert out["revoked"] is False


def test_scenario_wire_digest_pinned():
    assert _digest(*run_scenario()) == SCENARIO_DIGEST


def _exported(cls) -> list[str]:
    return sorted(
        name for name in dir(cls)
        if getattr(getattr(cls, name), "_syd_exported", False)
    )


def test_published_method_sets_pinned():
    assert _exported(CalendarService) == SERVICE_METHODS
    assert _exported(CalendarReadFacade) == FACADE_METHODS
