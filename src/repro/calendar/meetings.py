"""MeetingManager — the calendar application's coordination workflows.

One manager runs per user and drives every lifecycle of paper §4.4/§5
through coordination links and negotiations:

* **schedule** — find common slots, then a (multi-group) negotiation-and
  reserve; on partial availability fall back to a *tentative* meeting:
  available participants hold their slots, unavailable ones get a
  tentative back link queued at their slot, others get subscription back
  links to the initiator.
* **promotion** — when a missing participant's slot frees, their
  tentative link fires ``on_participant_available`` at the initiator,
  which re-runs the confirmation negotiation; on success the meeting is
  confirmed and the link structure upgraded.
* **cancel** — §4.4's steps: delete the forward link (cascading away the
  back links), release every slot (which triggers waiting tentative
  meetings of *other* initiators — automatic rescheduling), update
  meeting rows, notify by e-mail.
* **bump** — a higher-priority meeting steals slots; the bumped
  initiator releases the remains and automatically reschedules (§6).
* **drop-out** — participants ask the initiator to leave; or-group
  members are only released when the quorum survives or a replacement
  commits (§5's Biology-faculty rule).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Sequence

from repro.calendar.model import (
    LIVE,
    Meeting,
    MeetingStatus,
    OrGroup,
    SlotStatus,
)
from repro.calendar.notifications import MailSystem
from repro.calendar.scheduler import candidate_slots
from repro.calendar.service import CAL_SERVICE, CalendarService
from repro.kernel.links import LINKS_SERVICE
from repro.kernel.node import SyDNode
from repro.txn.coordinator import (
    AND,
    Constraint,
    NegotiationResult,
    Participant,
    at_least,
)
from repro.util.errors import (
    CalendarError,
    CoordinatorCrashed,
    NetworkError,
    NotInitiatorError,
    ReproError,
    SchedulingError,
)
from repro.util.idgen import IdGenerator


def _traced(name: str, key: str | None = None):
    """Wrap a MeetingManager entry point in a span and an SLO record.

    These are the application's top-level operations: when nothing else
    is open (direct API use) the span roots a fresh trace; under a
    workload driver it nests below the driver's step span. ``key`` names
    the span attribute for the first positional argument (meeting id or
    title).

    Every invocation also records its virtual-time latency into the
    node's per-op quantile digest (``op.<name>``) and bumps the
    ``op.<name>.calls`` / ``op.<name>.errors`` counters — the raw
    material :mod:`repro.obs.slo` evaluates, with or without tracing.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            attrs = {key: args[0]} if key is not None and args else {}
            metrics = self.node.metrics
            clock = self.node.transport.clock
            start = clock.now()
            try:
                with self.node.tracer.span(name, self.user, **attrs):
                    result = fn(self, *args, **kwargs)
            except ReproError:
                if metrics is not None:
                    metrics.inc(self.user, f"op.{name}.calls")
                    metrics.inc(self.user, f"op.{name}.errors")
                    metrics.record_value(self.user, f"op.{name}", clock.now() - start)
                raise
            if metrics is not None:
                metrics.inc(self.user, f"op.{name}.calls")
                metrics.record_value(self.user, f"op.{name}", clock.now() - start)
            return result

        return wrapper

    return deco


#: role -> (link type, subtype, callback at the initiator) of each back
#: link an initiator installs at a participant (§5)
_BACK_LINKS = {
    "back": ("negotiation", None, None),
    "tentative-back": ("negotiation", "tentative", "on_participant_available"),
    "supervisor-back": ("subscription", None, "on_supervisor_changed"),
    "back-subscription": ("subscription", None, "on_peer_change"),
}


class MeetingManager:
    """Per-user driver of the calendar application."""

    def __init__(self, node: SyDNode, service: CalendarService, mail: MailSystem):
        self.node = node
        self.service = service
        self.mail = mail
        self.user = node.user
        self._ids = IdGenerator()
        self._delegates: set[str] = set()
        service.manager = self
        # Experiment counters.
        self.promotions = 0
        self.reschedules = 0
        self.reschedule_map: dict[str, str] = {}
        node.events.on_local("calendar.participant_available", self._on_participant_available)
        node.events.on_local("calendar.meeting_bumped", self._on_meeting_bumped)
        node.events.on_local("calendar.supervisor_changed", self._on_supervisor_changed)

    # ------------------------------------------------------------------ schedule

    @_traced("cal.schedule", key="title")
    def schedule_meeting(
        self,
        title: str,
        participants: Sequence[str],
        *,
        day_from: int = 0,
        day_to: int | None = None,
        must_attend: Sequence[str] | None = None,
        or_groups: Sequence[OrGroup] | None = None,
        supervisors: Sequence[str] | None = None,
        priority: int | None = None,
        allow_tentative: bool = True,
        preferred_slot: dict[str, int] | None = None,
        max_candidates: int = 25,
    ) -> Meeting:
        """Set up a meeting (§5's typical scenario).

        ``participants`` is everyone invited. ``must_attend`` defaults to
        all participants not covered by an or-group and not supervisors.
        ``priority`` defaults to the highest *user* priority among the
        must-attendees and supervisors (paper §6: "each meeting is also
        assigned a priority depending on the must attendees").
        Raises :class:`SchedulingError` when no slot can be reserved even
        tentatively.
        """
        day_to = (self.service.calendar.days - 1) if day_to is None else day_to
        participants = _dedup([self.user, *participants])
        supervisors = _dedup(supervisors or [])
        or_groups = list(or_groups or [])
        grouped = {m for g in or_groups for m in g.members}
        if must_attend is None:
            must_attend = [
                u for u in participants if u not in grouped and u not in supervisors
            ]
        must_attend = _dedup([self.user, *must_attend])
        required = _dedup([*must_attend, *supervisors])
        if priority is None:
            priority = self._default_priority(required)

        # The slot-less request every attempt turns into a meeting.
        proto = Meeting(
            meeting_id=self._ids.next(f"mtg-{self.user}"),
            initiator=self.user,
            title=title,
            slot={},
            participants=participants,
            must_attend=must_attend,
            or_groups=or_groups,
            supervisors=supervisors,
            priority=priority,
            window=(day_from, day_to),
        )
        if preferred_slot is not None:
            candidates = [preferred_slot]
        else:
            candidates = candidate_slots(
                self.node.engine, required, or_groups, day_from, day_to,
                limit=max_candidates,
            )
            if not candidates:
                # "(ii) set up tentative meetings which could not be set
                # up otherwise due to unavailability of certain
                # individuals" (§1): pick the slot with the broadest
                # availability; a full-strength attempt there records
                # exactly who refuses (must-attendees *and* or-group
                # members) and, being all-or-nothing, leaves no residue.
                best = (
                    self._best_effort_slot(required, day_from, day_to)
                    if allow_tentative else None
                )
                if best is not None:
                    meeting, refused = self._attempt(proto, best)
                    if meeting is None:
                        meeting, _ = self._attempt(proto, best, refused)
                    if meeting is not None:
                        return meeting
                raise SchedulingError(
                    f"no common free slot for {required} in days [{day_from}, {day_to}]"
                )

        first_failure = None
        for slot in candidates:
            meeting, refused = self._attempt(proto, slot)
            if meeting is not None:
                return meeting
            if first_failure is None:
                # Refusals are per-slot: keep the ones recorded for THIS
                # slot, not whichever candidate happened to fail last.
                first_failure, first_refused = slot, refused
        if allow_tentative and first_failure is not None:
            meeting, _ = self._attempt(proto, first_failure, first_refused)
            if meeting is not None:
                return meeting
        raise SchedulingError(
            f"could not reserve any of {len(candidates)} candidate slots for {title!r}"
        )

    def _default_priority(self, users: Sequence[str]) -> int:
        """Highest user-rank among ``users`` (paper §6's inherited
        meeting priority). Users publish their rank in the directory
        ``info`` record; unranked users count as 0."""
        best = 0
        for user in users:
            try:
                info = self.node.directory.lookup_user(user).get("info") or {}
            except ReproError:
                continue
            best = max(best, int(info.get("priority", 0) or 0))
        return best

    def _best_effort_slot(
        self, required: list[str], day_from: int, day_to: int
    ) -> dict[str, int] | None:
        """The slot (free for the initiator) where the most required
        users are free, or None."""
        availability = self.node.engine.execute_group(
            required, CAL_SERVICE, "query_free_slots", day_from, day_to
        )
        free_by_user = {
            r.member: {(s["day"], s["hour"]) for s in (r.value or [])}
            for r in availability.succeeded
        }
        mine = free_by_user.get(self.user, set())
        if not mine:
            return None
        best_key, best_count = None, -1
        for key in sorted(mine):
            count = sum(1 for u in required if key in free_by_user.get(u, ()))
            if count > best_count:
                best_key, best_count = key, count
        assert best_key is not None
        return {"day": best_key[0], "hour": best_key[1]}

    def _attempt(
        self, proto: Meeting, slot: dict[str, int], refused: list[str] | None = None
    ) -> tuple[Meeting | None, list[str]]:
        """One reservation attempt for ``proto`` at ``slot``.

        Without ``refused`` it is full strength: every slot is reserved
        and the meeting is confirmed. With it, the slot is held by
        everyone not in ``refused`` and tentative links are queued at the
        rest (§5: 'for those folks who could not be reserved, a tentative
        back link to A is queued up at the corresponding slots'). Returns
        the meeting (None on failure) and the users who refused.
        """
        tentative = refused is not None
        result = self._negotiate(
            proto, slot, SlotStatus.HELD if tentative else SlotStatus.RESERVED,
            self._groups(proto, slot, refused or ()), compensate=True,
        )
        if not result.ok:
            return None, list(result.refused)
        committed = _dedup(result.changed)
        missing = [u for u in proto.participants if u not in committed] if tentative else []
        meeting = dataclasses.replace(
            proto,
            slot=slot,
            status=MeetingStatus.TENTATIVE if tentative else MeetingStatus.CONFIRMED,
            committed=committed,
            missing=missing,
            created_at=self.node.transport.clock.now(),
        )
        self._distribute(meeting)  # a fresh meeting id: the write always applies
        self._create_links(meeting)
        at = f"day {slot['day']} hour {slot['hour']}"
        if tentative:
            subject, body = "Tentative meeting", f"held at {at}; waiting on {missing}"
        else:
            subject, body = "Meeting confirmed", f"at {at} (id {meeting.meeting_id})"
        self._announce(meeting, subject, f"{meeting.title} {body}")
        return meeting, []

    # ------------------------------------------------------------------ negotiation

    def _groups(
        self,
        meeting: Meeting,
        slot: dict[str, int],
        refused: Sequence[str] = (),
        quorum: tuple[Sequence[str], int] | None = None,
    ) -> list[tuple[list[Participant], Constraint]]:
        """The constraint groups of a negotiation for ``meeting`` at ``slot``.

        By default an AND over the must-attendees and supervisors plus
        one at-least-k group per or-group. Users in ``refused`` are left
        out (a tentative hold); an or-group they shrink below k needs
        only the members left. ``quorum=(members, k)`` negotiates that
        one group alone (a drop-out's replacement search).
        """

        def targets(users: Sequence[str]) -> list[Participant]:
            return [
                Participant(
                    u, slot, CAL_SERVICE, mark_args=(meeting.priority, meeting.meeting_id)
                )
                for u in users
                if u != self.user and u not in refused
            ]

        if quorum is not None:
            members, k = quorum
            return [(targets(members), at_least(k))]
        groups = [(targets(_dedup([*meeting.must_attend, *meeting.supervisors])), AND)]
        for g in meeting.or_groups:
            left = [m for m in g.members if m not in refused]
            groups.append((targets(left), at_least(min(g.k, len(left)))))
        return groups

    def _negotiate(
        self,
        meeting: Meeting,
        slot: dict[str, int],
        status: SlotStatus,
        groups: list[tuple[list[Participant], Constraint]],
        compensate: bool = False,
    ) -> NegotiationResult:
        """Negotiate ``groups`` into ``status`` at ``slot`` for ``meeting``.

        With ``compensate``, a negotiation that *raises* after partially
        applying changes (a change or unlock leg died on a dead network)
        releases the slot at everyone before re-raising — the reservation
        must not outlive the aborted attempt. ``release_slot`` ignores
        slots referencing other meetings, so compensation is idempotent.
        """
        mid = meeting.meeting_id
        initiator = Participant(
            self.user, slot, CAL_SERVICE, mark_args=(meeting.priority, mid)
        )
        change = {
            "meeting_id": mid,
            "status": status.value,
            "priority": meeting.priority,
            "title": meeting.title,
        }
        try:
            return self.node.coordinator.execute_multi(initiator, groups, change)
        except CoordinatorCrashed:
            # Simulated coordinator death: this node is crashing *right
            # now* — it must not send compensation legs. Crash recovery
            # (the intent-log replay at restart) and the participants'
            # lease-based termination own the cleanup.
            raise
        except ReproError:
            if not compensate:
                raise
            users = _dedup([self.user, *(t.user for targets, _c in groups for t in targets)])
            self.service.fan_out(users, ("release_slot", slot, mid))
            raise

    # ------------------------------------------------------------------ links

    def _create_links(self, meeting: Meeting) -> None:
        """Install the link structure of §5 for ``meeting``."""
        from repro.kernel.linktypes import LinkRef, LinkType

        mid = meeting.meeting_id
        # Forward negotiation-and link at the initiator, triggered by the
        # initiator's slot, referencing every participant's slot.
        if not self.node.links.links_by_context("meeting_id", mid):
            self.node.links.create_link(
                LinkType.NEGOTIATION,
                [LinkRef(u, meeting.slot, CAL_SERVICE) for u in meeting.participants if u != self.user]
                or [LinkRef(self.user, meeting.slot, CAL_SERVICE)],
                source_entity=meeting.slot,
                constraint=AND,
                priority=meeting.priority,
                context={"meeting_id": mid, "cascade_id": mid, "role": "forward"},
            )

        for user in meeting.committed:
            if user == self.user:
                continue
            if user in meeting.supervisors:
                # Supervisors keep the right to change at will: only a
                # subscription back link at the supervisor (§5).
                self._back_link(user, meeting, "supervisor-back")
            elif meeting.status is MeetingStatus.CONFIRMED:
                # Negotiation back link at each committed participant.
                self._back_link(user, meeting, "back")
            else:
                # Tentative meeting: subscription back links keep the
                # initiator informed of subsequent changes (§5).
                self._back_link(user, meeting, "back-subscription")

        # Missing participants: tentative back link queued at their slot.
        for user in meeting.missing:
            self._back_link(user, meeting, "tentative-back")

    def _back_link(self, user: str, meeting: Meeting, role: str) -> None:
        """Install the ``role`` back link to this initiator at ``user``."""
        ltype, subtype, on_change = _BACK_LINKS[role]
        row: dict[str, Any] = {"ltype": ltype}
        if ltype == "negotiation":
            row["constraint"] = "and"
        if subtype is not None:
            row["subtype"] = subtype
        ref = {"user": self.user, "entity": meeting.slot, "service": CAL_SERVICE}
        if on_change is not None:
            ref["on_change"] = on_change
        mid = meeting.meeting_id
        row.update(
            source_entity=meeting.slot,
            refs=[ref],
            priority=meeting.priority,
            context={"meeting_id": mid, "cascade_id": mid, "role": role},
        )
        self.service.fan_out([user], ("create_link_row", row), service=LINKS_SERVICE)

    def _drop_links(self, meeting_id: str) -> None:
        """Delete this initiator's links of ``meeting_id``; the cascade
        removes the back links at every associated user (§4.4)."""
        for link in self.node.links.links_by_context("cascade_id", meeting_id):
            if self.node.links.has_link(link.link_id):
                self.node.links.delete_link(link.link_id, cascade=True)

    # ------------------------------------------------------------------ copies

    def _push(self, meeting: Meeting, *calls: tuple) -> int:
        """Fan ``calls`` out to every other user that may hold a copy of
        ``meeting``; returns the users all calls reached.

        Participants who already dropped or are still missing get the
        update too, so their stale CONFIRMED copies degrade correctly.
        """
        users = _dedup([*meeting.committed, *meeting.participants])
        return len(self.service.fan_out([u for u in users if u != self.user], *calls))

    def _distribute(self, meeting: Meeting) -> bool:
        """Store the meeting row here and at every participant (each keeps
        *only their own* copy — §6's storage claim). False, with nothing
        pushed, when the transition table refuses the local write."""
        if not self.service.calendar.put_meeting(meeting):
            return False
        self._push(meeting, ("store_meeting", meeting.to_row()))
        return True

    def _broadcast_status(self, meeting: Meeting, status: MeetingStatus) -> bool:
        """Set ``status`` here and push it, as :meth:`_distribute`."""
        meeting.status = status
        if not self.service.calendar.put_meeting(meeting):
            return False
        self._push(meeting, ("set_meeting_status", meeting.meeting_id, status.value))
        return True

    def _announce(self, meeting: Meeting, subject: str, body: str) -> None:
        """E-mail ``<subject>: <title>`` to the meeting's committed users."""
        self.mail.broadcast(
            self.user, meeting.committed, f"{subject}: {meeting.title}", body,
            meeting_id=meeting.meeting_id,
        )

    def _release(
        self, meeting: Meeting, slot: dict[str, int], skip: str | None = None
    ) -> None:
        """Free ``slot`` for ``meeting`` at every committed user but
        ``skip``. Releases fire availability triggers, which is what
        converts *other* tentative meetings to permanent automatically."""
        self.service.fan_out(
            [u for u in meeting.committed if u != skip],
            ("release_slot", slot, meeting.meeting_id),
        )

    def _degrade(self, meeting: Meeting, user: str) -> bool:
        """``user`` left ``meeting``: it becomes tentative and a tentative
        link queued at ``user`` awaits their return (§5). False when the
        meeting is no longer live enough to degrade (cancelled or bumped)."""
        meeting.committed = [u for u in meeting.committed if u != user]
        meeting.missing = _dedup([*meeting.missing, user])
        meeting.status = MeetingStatus.TENTATIVE
        if not self._distribute(meeting):
            return False
        self._back_link(user, meeting, "tentative-back")
        return True

    # ------------------------------------------------------------------ cancel (§4.4)

    @_traced("cal.cancel", key="meeting")
    def cancel_meeting(self, meeting_id: str) -> Meeting:
        """Cancel one of this user's own meetings (initiator only).

        Follows §4.4: waiting/tentative structures get their chance via
        the slot releases; associated links are deleted in a cascade; all
        calendars are updated; participants are e-mailed.
        """
        meeting = self.service.calendar.meeting(meeting_id)
        if meeting.initiator != self.user:
            raise NotInitiatorError(
                f"{self.user} did not initiate {meeting_id} (ask {meeting.initiator})"
            )
        if meeting.status is MeetingStatus.CANCELLED:
            return meeting

        # 1–4: delete the forward link, cascading away the back links.
        # 5–7: update each calendar and release every reserved slot.
        self._drop_links(meeting_id)
        self._broadcast_status(meeting, MeetingStatus.CANCELLED)
        self._release(meeting, meeting.slot)
        self._announce(
            meeting, "Meeting cancelled",
            f"{meeting.title} (id {meeting_id}) was cancelled by {self.user}",
        )
        return self.service.calendar.meeting(meeting_id)

    # ------------------------------------------------------------------ promotion

    @_traced("cal.confirm", key="meeting")
    def confirm_tentative(self, meeting_id: str) -> bool:
        """Try to convert a tentative meeting to confirmed (§5).

        Re-runs the full-strength negotiation; held slots of this very
        meeting re-lock via the ``meeting_id`` mark argument.
        """
        meeting = self.service.calendar.meeting(meeting_id)
        if meeting.status is not MeetingStatus.TENTATIVE:
            return meeting.status is MeetingStatus.CONFIRMED
        result = self._negotiate(
            meeting, meeting.slot, SlotStatus.RESERVED, self._groups(meeting, meeting.slot)
        )
        if not result.ok:
            return False

        newly_joined = [u for u in meeting.missing if u in result.changed]
        meeting.committed = _dedup(result.changed)
        meeting.missing = [u for u in meeting.missing if u not in meeting.committed]
        meeting.status = MeetingStatus.CONFIRMED
        self._distribute(meeting)
        # Upgrade the link structure: retire tentative/subscription back
        # links, install proper negotiation back links.
        self.service.fan_out(
            newly_joined, ("delete_links_by_context", "meeting_id", meeting_id),
            service=LINKS_SERVICE,
        )
        self._create_links(meeting)
        self._announce(
            meeting, "Meeting confirmed", f"Tentative meeting {meeting_id} is now confirmed"
        )
        self.promotions += 1
        return True

    def _on_participant_available(self, topic: str, payload: dict[str, Any]) -> None:
        meeting_id = payload.get("meeting_id")
        if not meeting_id or not self.service.calendar.has_meeting(meeting_id):
            return
        self.confirm_tentative(meeting_id)

    # ------------------------------------------------------------------ bumping

    def _on_meeting_bumped(self, topic: str, payload: dict[str, Any]) -> None:
        """One of our meetings lost a slot to a higher-priority meeting:
        release the rest, mark it bumped, and automatically reschedule
        (§6: 'the low priority meeting is then automatically
        rescheduled')."""
        meeting_id = payload["meeting_id"]
        if not self.service.calendar.has_meeting(meeting_id):
            return
        meeting = self.service.calendar.meeting(meeting_id)
        if meeting.status is MeetingStatus.BUMPED and meeting_id in self.reschedule_map:
            return  # already handled

        # Tear down links and release the slots that are still ours; the
        # slot at the bumping user now belongs to the bumping meeting. A
        # cancelled meeting refuses the mark and is not rescheduled.
        self._drop_links(meeting_id)
        if not self._broadcast_status(meeting, MeetingStatus.BUMPED):
            return
        self._release(meeting, meeting.slot, skip=payload.get("user"))
        self._announce(
            meeting, "Meeting bumped", f"{meeting.title} lost its slot to a higher-priority meeting"
        )
        try:
            replacement = self.schedule_meeting(
                meeting.title,
                meeting.participants,
                day_from=meeting.window[0],
                day_to=meeting.window[1],
                must_attend=meeting.must_attend,
                or_groups=meeting.or_groups,
                supervisors=meeting.supervisors,
                priority=meeting.priority,
            )
            self.reschedule_map[meeting_id] = replacement.meeting_id
            self.reschedules += 1
        except SchedulingError:
            pass  # no slot anywhere; the meeting stays bumped

    def schedule_group_meeting(self, group_id: str, title: str, **options: Any) -> Meeting:
        """Schedule a meeting for a SyDDirectory *dynamic group* (§1:
        "formation and maintenance of dynamic groups").

        Membership is resolved at call time, so groups formed or mutated
        elsewhere are picked up automatically.
        """
        members = self.node.directory.group_members(group_id)
        participants = [u for u in members if u != self.user]
        return self.schedule_meeting(title, participants, **options)

    # ------------------------------------------------------------------ move (§3.2 / §5)

    @_traced("cal.move", key="meeting")
    def move_meeting(
        self, meeting_id: str, new_slot: dict[str, int] | None = None
    ) -> Meeting | None:
        """Atomically relocate a meeting to ``new_slot`` (or the next
        common free slot) — §3.2's ``Change_meeting_time_to_next_
        available()``.

        The §5 semantics: the attempt "would trigger the forward
        negotiation-and link from A to A, B, C and D. If all succeed,
        then a new duration is reserved at each calendar with all
        forward and back links established. If not all can agree, then
        [the requester] would be unable to change the schedule" — i.e.
        all-or-nothing, returning None on refusal with the meeting
        untouched.
        """
        meeting = self.service.calendar.meeting(meeting_id)
        if meeting.initiator != self.user:
            raise NotInitiatorError(
                f"{self.user} did not initiate {meeting_id}; use request_move"
            )
        if meeting.status not in LIVE:
            return None

        if new_slot is None:
            candidates = candidate_slots(
                self.node.engine,
                _dedup([*meeting.must_attend, *meeting.supervisors]),
                meeting.or_groups,
                0,
                self.service.calendar.days - 1,
            )
            later = [
                s
                for s in candidates
                if (s["day"], s["hour"]) > (meeting.slot["day"], meeting.slot["hour"])
            ]
            if not later:
                return None
            new_slot = later[0]

        # Reserve the new slot for everyone, atomically.
        result = self._negotiate(
            meeting, new_slot, SlotStatus.RESERVED, self._groups(meeting, new_slot)
        )
        if not result.ok:
            return None

        # Release the old slots and rebuild the link structure at the
        # new source entity.
        self._release(meeting, meeting.slot)
        self._drop_links(meeting_id)
        meeting.slot = dict(new_slot)
        meeting.committed = _dedup(result.changed)
        meeting.missing = [u for u in meeting.participants if u not in meeting.committed]
        meeting.status = MeetingStatus.CONFIRMED
        self._distribute(meeting)
        self._create_links(meeting)
        self._announce(
            meeting, "Meeting moved", f"now at day {new_slot['day']} hour {new_slot['hour']}"
        )
        return meeting

    def request_move(self, meeting_id: str, new_slot: dict[str, int] | None = None) -> bool:
        """A participant asks the initiator to move the meeting (§5's
        "D wants to change the schedule for this meeting")."""
        meeting = self.service.calendar.meeting(meeting_id)
        if meeting.initiator == self.user:
            return self.move_meeting(meeting_id, new_slot) is not None
        result = self.node.engine.execute(
            meeting.initiator, CAL_SERVICE, "move_requested", meeting_id, self.user, new_slot
        )
        return bool(result)

    # ------------------------------------------------------------------ delegation (§5)

    def delegate_to(self, user: str) -> None:
        """Authorize ``user`` to call meetings with this user's authority
        (§5: "an executive may want to delegate the task of scheduling a
        meeting to a staff")."""
        self._delegates.add(user)

    def revoke_delegation(self, user: str) -> None:
        """Withdraw a delegation."""
        self._delegates.discard(user)

    def is_delegate(self, user: str) -> bool:
        return user in self._delegates

    def schedule_for_delegate(
        self, delegate: str, title: str, participants: list[str], options: dict[str, Any]
    ) -> dict[str, Any]:
        """Run a scheduling request submitted by an authorized delegate.

        The meeting is initiated *by this user* (the boss's transferred
        authority): priority, cancellation rights and links all belong
        to the delegator.
        """
        if not self.is_delegate(delegate):
            raise NotInitiatorError(
                f"{delegate!r} holds no delegation from {self.user!r}"
            )
        or_groups = [OrGroup.from_dict(d) for d in options.pop("or_groups", [])]
        meeting = self.schedule_meeting(
            title, participants, or_groups=or_groups or None, **options
        )
        return meeting.to_row()

    def schedule_on_behalf(
        self,
        boss: str,
        title: str,
        participants: list[str],
        **options: Any,
    ) -> Meeting:
        """Delegate-side entry point: call a meeting with ``boss``'s
        authority (the boss's manager must have delegated to us)."""
        if "or_groups" in options and options["or_groups"]:
            options["or_groups"] = [g.to_dict() for g in options["or_groups"]]
        row = self.node.engine.execute(
            boss, CAL_SERVICE, "schedule_as_delegate", self.user, title,
            list(participants), options,
        )
        return Meeting.from_row(row)

    # ------------------------------------------------------------------ drop-out

    @_traced("cal.drop_out", key="meeting")
    def drop_out(self, meeting_id: str) -> bool:
        """Leave a meeting this user participates in (non-initiators).

        Asks the initiator; only releases the slot when granted.
        """
        meeting = self.service.calendar.meeting(meeting_id)
        if meeting.initiator == self.user:
            raise CalendarError("initiators cancel, they do not drop out")
        verdict = self.node.engine.execute(
            meeting.initiator, CAL_SERVICE, "request_drop_out", meeting_id, self.user
        )
        if not verdict.get("granted"):
            return False
        # A voluntary exit, not an availability announcement: withdraw
        # quietly so the meeting does not instantly re-capture the slot.
        self.service.withdraw_slot(meeting.slot, meeting_id)
        return True

    def handle_drop_request(self, meeting_id: str, user: str) -> dict[str, Any]:
        """Initiator-side decision for a drop-out request (§5 semantics)."""
        meeting = self.service.calendar.meeting(meeting_id)
        if user not in meeting.committed:
            return {"granted": True, "reason": "not committed"}

        in_or_group = next((g for g in meeting.or_groups if user in g.members), None)
        if in_or_group is None:
            # Must-attendee (or supervisor) leaving: grant, but the
            # meeting degrades to tentative and waits for them.
            if not self._degrade(meeting, user):
                return {"granted": True, "reason": "meeting not live"}
            self.mail.send(
                self.user,
                user,
                f"Drop-out accepted: {meeting.title}",
                "meeting is now tentative",
                meeting_id=meeting_id,
            )
            return {"granted": True, "reason": "meeting now tentative"}
        if meeting.status not in LIVE:
            # An or-group drop may negotiate a replacement, which would
            # reserve a slot before any write the table could refuse.
            return {"granted": True, "reason": "meeting not live"}

        committed_in_group = [
            m for m in in_or_group.members if m in meeting.committed and m != user
        ]
        if len(committed_in_group) >= in_or_group.k:
            meeting.committed = [u for u in meeting.committed if u != user]
            self._distribute(meeting)
            return {"granted": True, "reason": "quorum holds"}

        # Quorum would break: seek one replacement commitment (§5: "only
        # if an additional commitment is found, is the cancellation
        # request granted").
        uncommitted = [m for m in in_or_group.members if m not in meeting.committed]
        confirmed = meeting.status is MeetingStatus.CONFIRMED
        status = SlotStatus.RESERVED if confirmed else SlotStatus.HELD
        result = self._negotiate(
            meeting, meeting.slot, status,
            self._groups(meeting, meeting.slot, quorum=(uncommitted, 1)),
        )
        if result.ok:
            joined = [u for u in result.changed if u != self.user]
            meeting.committed = _dedup(
                [u for u in meeting.committed if u != user] + joined
            )
            self._distribute(meeting)
            return {"granted": True, "reason": f"replacement found: {joined}"}
        return {"granted": False, "reason": "quorum would break, no replacement"}

    # ------------------------------------------------------------------ reconcile

    @_traced("cal.reconcile")
    def reconcile(self) -> dict[str, int]:
        """Pull-based anti-entropy after downtime or a partition heal.

        A device that was unreachable misses ``store_meeting`` /
        ``set_meeting_status`` / ``release_slot`` updates — the senders
        deliberately skip unreachable peers (their stale copies "degrade
        correctly" only once traffic resumes). On reconnection the device
        asks each meeting's *initiator* — the authoritative copy — for
        current state and adopts it: statuses converge, stale
        reservations are released (firing availability triggers, so
        waiting tentative meetings get their chance), and links of dead
        meetings are pruned. Reservations whose meeting row never arrived
        are resolved the same way via the initiator encoded in the
        meeting id. For meetings this user initiated, participants that
        lost the slot while we were away (priority bumps) are detected
        and handed to the normal bump path.

        Returns counters: ``adopted``/``released``/``pruned``/``bumped``.
        """
        from repro.datastore.predicate import where

        counts = {
            "adopted": 0, "released": 0, "pruned": 0, "bumped": 0,
            "repushed": 0, "ghosts": 0,
        }

        # 0. Ghost reservations: a change leg that applied before we
        #    crashed may have reserved a peer's slot for a meeting we
        #    never recorded — broadcast the ids of our meetings that *are*
        #    live so peers release the rest of our ``mtg-<user>-``
        #    namespace (release_ghost_slots). Leftover *locks* are not
        #    swept here: coordinator crash recovery and each participant's
        #    lease sweep (``terminate_stale_marks``) release them only
        #    after checking the transaction's decision.
        if not self.node.coordinator.busy:
            live_ids = [
                m.meeting_id
                for m in self.service.calendar.meetings()
                if m.initiator == self.user and m.status in LIVE
            ]
            try:
                roster = self.node.directory.list_users()
            except NetworkError:
                roster = []  # directory unreachable; retried next reconcile
            released = self.service.fan_out(
                [u for u in roster if u != self.user],
                ("release_ghost_slots", f"mtg-{self.user}-", live_ids),
            )
            counts["ghosts"] += sum(released.values())

        # 1. Meetings we hold a copy of but did not initiate: adopt the
        #    initiator's authoritative row.
        for meeting in list(self.service.calendar.meetings()):
            if meeting.initiator == self.user:
                continue
            authoritative = self._authoritative_copy(meeting.meeting_id, meeting.initiator)
            if authoritative is None:
                continue  # initiator unreachable; try again next reconcile
            if authoritative.to_row() != meeting.to_row():
                if self.service.calendar.put_meeting(authoritative):
                    counts["adopted"] += 1
                    meeting = authoritative  # else the table kept our dead copy
            counts["released"] += self._align_slots(meeting)
            if meeting.status not in LIVE:
                counts["pruned"] += self.node.links.delete_links_by_context(
                    "meeting_id", meeting.meeting_id
                )

        # 2. Orphaned reservations: slot rows referencing a meeting we
        #    have no row for (the negotiation's change applied here but
        #    the distribution leg was lost, or the meeting aborted).
        occupied = self.service.calendar.store.select(
            "slots", (where("status") == "reserved") | (where("status") == "held")
        )
        for row in occupied:
            mid = row.get("meeting_id")
            if not mid or self.service.calendar.has_meeting(mid):
                continue
            initiator = self._initiator_of(mid)
            authoritative = (
                self._authoritative_copy(mid, initiator) if initiator else None
            )
            if authoritative is not None and self.user in authoritative.committed:
                # We missed the meeting row but legitimately hold the slot.
                self.service.calendar.put_meeting(authoritative)
                counts["adopted"] += 1
                counts["released"] += self._align_slots(authoritative)
            else:
                entity = {"day": row["day"], "hour": row["hour"]}
                self.service.release_slot(entity, mid)
                counts["released"] += 1

        # 3. Meetings we initiated. Dead ones first: a cancel/bump whose
        #    remote legs were lost (e.g. we crashed mid-cancel) leaves
        #    participants holding slots for a meeting we know is dead —
        #    re-push the terminal status and slot releases (idempotent;
        #    release_slot is a no-op unless the slot still names us).
        for meeting in list(self.service.calendar.meetings()):
            if meeting.initiator != self.user or meeting.status in LIVE:
                continue
            counts["repushed"] += self._push(
                meeting,
                ("set_meeting_status", meeting.meeting_id, meeting.status.value),
                ("release_slot", meeting.slot, meeting.meeting_id),
            )

        #    Live ones: a committed participant may have missed the
        #    meeting-copy distribution (we crashed between the commit and
        #    the ``store_meeting`` legs, or the leg was dropped past the
        #    retry budget) — re-push our authoritative row where the copy
        #    is missing or stale. Separately, a participant whose slot no
        #    longer references the meeting lost it to a higher-priority
        #    bump while we were unreachable. This audit keeps its own loop
        #    rather than a fan-out: it stops at the first bumped
        #    participant, whose bump path rebuilds the meeting.
        for meeting in list(self.service.calendar.meetings()):
            if meeting.initiator != self.user or meeting.status not in LIVE:
                continue
            for user in meeting.committed:
                if user == self.user:
                    continue
                try:
                    copy_row = self.node.engine.execute(
                        user, CAL_SERVICE, "get_meeting", meeting.meeting_id
                    )
                    if copy_row != meeting.to_row():
                        self.node.engine.execute(
                            user, CAL_SERVICE, "store_meeting", meeting.to_row()
                        )
                        counts["repushed"] += 1
                    slot_row = self.node.engine.execute(
                        user, CAL_SERVICE, "get_slot", meeting.slot
                    )
                except NetworkError:
                    continue
                if slot_row.get("meeting_id") != meeting.meeting_id:
                    self._on_meeting_bumped(
                        "calendar.meeting_bumped",
                        {"meeting_id": meeting.meeting_id, "user": user},
                    )
                    counts["bumped"] += 1
                    break
        return counts

    def _authoritative_copy(self, meeting_id: str, initiator: str) -> Meeting | None:
        """The initiator's current row as a Meeting; a meeting the
        initiator no longer knows counts as cancelled. None when the
        initiator cannot be reached (or is this user)."""
        if initiator == self.user:
            return None
        try:
            row = self.node.engine.execute(
                initiator, CAL_SERVICE, "get_meeting", meeting_id
            )
        except ReproError:
            return None
        if row is None:
            if not self.service.calendar.has_meeting(meeting_id):
                return None  # neither side knows it; caller releases the slot
            ghost = self.service.calendar.meeting(meeting_id)
            ghost.status = MeetingStatus.CANCELLED
            return ghost
        return Meeting.from_row(row)

    def _align_slots(self, meeting: Meeting) -> int:
        """Release every local slot held for ``meeting`` that the
        authoritative copy no longer justifies; returns releases."""
        released = 0
        keep_slot = meeting.status in LIVE and self.user in meeting.committed
        for slot_row in self.service.calendar.slots_of_meeting(meeting.meeting_id):
            entity = {"day": slot_row["day"], "hour": slot_row["hour"]}
            if keep_slot and entity == meeting.slot:
                continue
            self.service.release_slot(entity, meeting.meeting_id)
            released += 1
        return released

    @staticmethod
    def _initiator_of(meeting_id: str) -> str | None:
        """Initiator encoded in a ``mtg-<user>-<n>`` meeting id."""
        if not meeting_id.startswith("mtg-"):
            return None
        stem = meeting_id[len("mtg-"):]
        if "-" not in stem:
            return None
        return stem.rsplit("-", 1)[0]

    # ------------------------------------------------------------------ supervisor changes

    def _on_supervisor_changed(self, topic: str, payload: dict[str, Any]) -> None:
        """Supervisor changed their schedule (§5): the meeting becomes
        tentative, all back links to A degrade to subscriptions, and a
        tentative link queued at the supervisor awaits their return."""
        meeting_id = payload.get("meeting_id")
        if not meeting_id or not self.service.calendar.has_meeting(meeting_id):
            return
        meeting = self.service.calendar.meeting(meeting_id)
        supervisor = payload.get("user")
        if supervisor not in meeting.supervisors or supervisor not in meeting.committed:
            return
        if not self._degrade(meeting, supervisor):
            return
        self._announce(
            meeting, "Meeting tentative", f"supervisor {supervisor} changed their schedule"
        )


def _dedup(items: Sequence[str]) -> list[str]:
    """Stable de-duplication."""
    seen: set[str] = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
