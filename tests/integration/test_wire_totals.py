"""Pinned wire totals of a small fixed calendar world.

The end-to-end benchmark checks that message counts, wire bytes and
virtual latencies do not move, but it is not part of the fast suite.
This test is the fast suite's byte guard: four users at seed 7 run a
few free-slot queries, schedule three meetings (one with a non-ASCII
title) and cancel two, and the totals must equal the pinned values.

The pinned numbers were recorded on the commit before the one-pass
message-size walk and the direct listener dispatch were introduced;
those changes were required to leave every byte and virtual second as
it was. A deliberate change to the wire format or the latency model
updates them.
"""

import pytest

from repro import SyDWorld
from repro.calendar.app import SyDCalendarApp
from repro.calendar.model import MeetingStatus
from repro.calendar.scheduler import find_common_free_slots

USERS = ["ann", "bob", "cy", "dee"]

#: tracing -> (stats.messages, stats.bytes, virtual end time); trace
#: headers ride on request legs, so tracing costs bytes and latency
PINNED = {
    False: (556, 117740, 4.273038702824375),
    True: (556, 122744, 4.277894794860915),
}


def _drive(tracing: bool) -> tuple[SyDWorld, list[int]]:
    world = SyDWorld(seed=7, tracing=tracing)
    app = SyDCalendarApp(world)
    for user in USERS:
        app.add_user(user)
    engine = app.node("ann").engine
    free = [len(find_common_free_slots(engine, USERS, 0, 2))]
    plan = app.manager("ann").schedule_meeting("plan", ["bob", "cy"], day_from=0, day_to=1)
    sync = app.manager("bob").schedule_meeting(
        "sync", ["ann", "cy", "dee"], day_from=0, day_to=2
    )
    free.append(len(find_common_free_slots(engine, USERS, 0, 2)))
    retro = app.manager("dee").schedule_meeting("rétro", USERS[:3], day_from=1, day_to=2)
    for meeting in (plan, sync, retro):
        assert meeting.status is MeetingStatus.CONFIRMED
    app.manager("ann").cancel_meeting(plan.meeting_id)
    free.append(len(find_common_free_slots(app.node("cy").engine, ["cy", "dee"], 0, 1)))
    app.manager("dee").cancel_meeting(retro.meeting_id)
    return world, free


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_wire_totals_are_pinned(tracing):
    world, free = _drive(tracing)
    assert free == [24, 22, 14]
    stats = world.transport.stats
    assert (stats.messages, stats.bytes, world.clock.now()) == PINNED[tracing]
