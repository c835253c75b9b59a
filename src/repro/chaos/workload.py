"""Seeded random calendar workload for chaos episodes.

Draws operations (schedule / cancel / block / unblock / move / confirm /
drop-out / group scheduling) from a dedicated
:class:`~repro.sim.random.RandomStreams` stream and applies them through
the public application API. Every operation is wrapped: application and
network errors are *expected* under fault injection and are recorded as
failed ops, never raised — the invariant checkers, not op success,
decide whether the system misbehaved.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.calendar.app import SyDCalendarApp
from repro.calendar.model import LIVE, MeetingStatus
from repro.util.errors import ReproError

ACTIONS = (
    ("schedule", 5),
    ("cancel", 2),
    ("block", 2),
    ("unblock", 1),
    ("move", 1),
    ("confirm", 1),
    ("drop_out", 1),
    ("group", 1),
    # Remote read of a peer's slot: side-effect free, so it exercises
    # the lost-reply path (handler runs, reply dropped, retry replays)
    # without any state at stake.
    ("poll", 1),
)


class Workload:
    """Applies one random calendar operation per :meth:`step`."""

    def __init__(
        self,
        app: SyDCalendarApp,
        users: list[str],
        rng: random.Random,
        log: Callable[[str], None],
    ):
        self.app = app
        self.users = list(users)
        self.rng = rng
        self.log = log
        self.ops_ok = 0
        self.ops_failed = 0
        self.ops_skipped = 0
        self._blocks: dict[str, list[dict[str, int]]] = {u: [] for u in users}
        self._groups = 0

    def step(self, index: int) -> None:
        """Draw and run operation number ``index``."""
        user = self.rng.choice(self.users)
        action = self.rng.choices(
            [a for a, _ in ACTIONS], weights=[w for _, w in ACTIONS]
        )[0]
        now = self.app.world.clock.now()
        if not self.app.world.is_up(user):
            # A powered-off device cannot originate operations; drawing
            # the action first keeps the random stream aligned across
            # runs that differ only in fault timing.
            self.ops_skipped += 1
            self.log(f"t={now:8.2f} op {index:3d} {user} {action} ~~ device down")
            return
        tracer = self.app.world.tracer
        try:
            # Each workload op is its own root trace: everything the op
            # causes (negotiation legs, link cascades, retries, remote
            # handler work) hangs off this span in the exported timeline.
            with tracer.span("chaos.step", user, op=index, action=action):
                detail = self._apply(action, user, index)
        except ReproError as exc:
            self.ops_failed += 1
            self.log(f"t={now:8.2f} op {index:3d} {user} {action} !! {type(exc).__name__}")
        else:
            self.ops_ok += 1
            self.log(f"t={now:8.2f} op {index:3d} {user} {action} -> {detail}")

    # -- individual operations ------------------------------------------------

    def _apply(self, action: str, user: str, index: int) -> str:
        if action == "schedule":
            return self._schedule(user, index)
        if action == "cancel":
            return self._cancel(user)
        if action == "block":
            return self._block(user)
        if action == "unblock":
            return self._unblock(user)
        if action == "move":
            return self._move(user)
        if action == "confirm":
            return self._confirm(user)
        if action == "drop_out":
            return self._drop_out(user)
        if action == "poll":
            return self._poll(user)
        return self._group(user, index)

    def _poll(self, user: str) -> str:
        other = self.rng.choice([u for u in self.users if u != user])
        day = self.rng.randrange(self.app.days)
        hour = self.rng.randrange(self.app.day_start, self.app.day_end)
        slot = self.app.node(user).engine.execute(
            other, "calendar", "get_slot", {"day": day, "hour": hour}
        )
        return f"{other} d{day}h{hour} {slot['status']}"

    def _schedule(self, user: str, index: int) -> str:
        others = [u for u in self.users if u != user]
        k = self.rng.randint(1, min(3, len(others)))
        participants = sorted(self.rng.sample(others, k))
        meeting = self.app.manager(user).schedule_meeting(f"m{index}", participants)
        return f"{meeting.meeting_id} {meeting.status.value}"

    def _own_meetings(self, user: str, statuses=LIVE) -> list:
        return [
            m
            for m in self.app.calendar(user).meetings()
            if m.initiator == user and m.status in statuses
        ]

    def _cancel(self, user: str) -> str:
        own = self._own_meetings(user)
        if not own:
            return "noop"
        meeting = self.rng.choice(own)
        self.app.manager(user).cancel_meeting(meeting.meeting_id)
        return f"{meeting.meeting_id} cancelled"

    def _block(self, user: str) -> str:
        free = self.app.calendar(user).free_slots(0, self.app.days - 1)
        if not free:
            return "noop"
        row = self.rng.choice(free)
        entity = {"day": row["day"], "hour": row["hour"]}
        self.app.service(user).block(entity)
        self._blocks[user].append(entity)
        return f"d{entity['day']}h{entity['hour']}"

    def _unblock(self, user: str) -> str:
        if not self._blocks[user]:
            return "noop"
        entity = self._blocks[user].pop(self.rng.randrange(len(self._blocks[user])))
        self.app.service(user).unblock(entity)
        return f"d{entity['day']}h{entity['hour']}"

    def _move(self, user: str) -> str:
        own = self._own_meetings(user, (MeetingStatus.CONFIRMED,))
        if not own:
            return "noop"
        meeting = self.rng.choice(own)
        moved = self.app.manager(user).move_meeting(meeting.meeting_id, None)
        return f"{meeting.meeting_id} {'moved' if moved else 'unmoved'}"

    def _confirm(self, user: str) -> str:
        own = self._own_meetings(user, (MeetingStatus.TENTATIVE,))
        if not own:
            return "noop"
        meeting = self.rng.choice(own)
        ok = self.app.manager(user).confirm_tentative(meeting.meeting_id)
        return f"{meeting.meeting_id} {'confirmed' if ok else 'still-tentative'}"

    def _drop_out(self, user: str) -> str:
        joined = [
            m
            for m in self.app.calendar(user).meetings()
            if m.initiator != user and m.status in LIVE and user in m.committed
        ]
        if not joined:
            return "noop"
        meeting = self.rng.choice(joined)
        granted = self.app.manager(user).drop_out(meeting.meeting_id)
        return f"{meeting.meeting_id} {'granted' if granted else 'denied'}"

    def _group(self, user: str, index: int) -> str:
        # Directory-group scheduling doubles as epoch churn for the
        # directory caches (form_group bumps the epoch).
        k = self.rng.randint(2, min(4, len(self.users)))
        members = sorted(self.rng.sample(self.users, k))
        self._groups += 1
        gid = f"g{self._groups}"
        self.app.node(user).directory.form_group(gid, user, members)
        meeting = self.app.manager(user).schedule_group_meeting(gid, f"gm{index}")
        return f"{gid}{members} {meeting.status.value}"
