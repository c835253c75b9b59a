"""CalendarService — the published device object of one user's calendar.

This is the ``Phil_calendar_SyD`` object of paper §3.2: it encapsulates
the user's calendar store behind exported methods. Three method families:

* **queries** — ``query_free_slots``, ``get_slot``, ``get_meeting`` (§5
  step i: "query each table for free slots which fall between dates d1
  and d2");
* **negotiation verbs** — ``mark`` / ``change`` / ``unmark`` implementing
  §4.3 on calendar slots, including priority bumping ("a higher priority
  meeting may bump a previously scheduled meeting");
* **coordination callbacks** — invoked remotely through links
  (``on_participant_available``, ``on_meeting_bumped``,
  ``on_supervisor_changed``) and re-raised as local events for the
  :class:`~repro.calendar.meetings.MeetingManager`.

Slot release fires the waiting machinery: the highest-priority tentative
link queued at the freed slot is triggered, "informing A of C's
availability" (§5).

The queries and the passive copy writes live in :class:`CalendarCopy`,
which a proxy's :class:`~repro.calendar.proxysupport.CalendarReadFacade`
shares: both serve the same calendar copy, one on the device and one on
a replica.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Iterable

from repro.calendar.model import (
    Meeting,
    MeetingStatus,
    SlotStatus,
    entity_to_id,
)
from repro.calendar.storage import CalendarStore
from repro.device.object import SyDDeviceObject, exported
from repro.kernel.links import SyDLinks
from repro.kernel.linktypes import LinkSubtype
from repro.txn.locks import LockManager
from repro.txn.status import TXN_STATUS_OBJECT, coordinator_node_of
from repro.util.errors import (
    CalendarError,
    LockNotHeldError,
    NetworkError,
    ReproError,
    SlotUnavailableError,
)
from repro.util.events import EventBus

if TYPE_CHECKING:
    from repro.calendar.meetings import MeetingManager

#: the name every user's calendar is published under
CAL_SERVICE = "calendar"


class CalendarCopy(SyDDeviceObject):
    """The verbs every holder of a user's calendar copy serves: queries,
    and the passive copy writes initiators push to participants (each
    participant keeps *only their own* copy — §6)."""

    def __init__(self, user: str, calendar: CalendarStore):
        super().__init__(f"{user}_calendar_SyD", calendar.store)
        self.user = user
        self.calendar = calendar

    # -- queries -----------------------------------------------------------------

    @exported
    def query_free_slots(self, day_from: int, day_to: int) -> list[dict[str, int]]:
        """Free slots in the window, as entity dicts, chronological."""
        return self.calendar.free_entities(day_from, day_to)

    @exported
    def get_slot(self, entity: dict[str, int]) -> dict[str, Any]:
        """Full slot row for an entity."""
        return self.calendar.slot_of(entity)

    @exported
    def get_meeting(self, meeting_id: str) -> dict[str, Any] | None:
        """This user's copy of a meeting row (None when absent)."""
        if self.calendar.has_meeting(meeting_id):
            return self.calendar.meeting(meeting_id).to_row()
        return None

    @exported
    def list_meetings(self, status: str | None = None) -> list[dict[str, Any]]:
        """All meeting rows this user holds."""
        st = MeetingStatus(status) if status else None
        return [m.to_row() for m in self.calendar.meetings(st)]

    # -- copy writes pushed by initiators ------------------------------------------

    @exported
    def store_meeting(self, row: dict[str, Any]) -> None:
        """Record (or update) this user's copy of a meeting, unless the
        transition table refuses it (a late push over a cancelled copy)."""
        self.calendar.put_meeting(Meeting.from_row(row))

    @exported
    def set_meeting_status(self, meeting_id: str, status: str) -> bool:
        """Update the local meeting copy's status (False when absent or
        when the transition table refuses it)."""
        if not self.calendar.has_meeting(meeting_id):
            return False
        return self.calendar.set_meeting_status(meeting_id, MeetingStatus(status))

    @exported
    def release_slot(self, entity: dict[str, int], meeting_id: str) -> bool:
        """Free the slot held by ``meeting_id`` (False when it holds
        another meeting or none)."""
        sid = entity_to_id(entity)
        if self.calendar.slot(sid)["meeting_id"] != meeting_id:
            return False
        self.calendar.release_slot(sid)
        return True


class CalendarService(CalendarCopy):
    """One user's calendar, published on their device."""

    def __init__(
        self,
        user: str,
        calendar: CalendarStore,
        locks: LockManager,
        links: SyDLinks,
        engine,
        bus: EventBus,
    ):
        super().__init__(user, calendar)
        self.locks = locks
        self.links = links
        self.engine = engine
        self.bus = bus
        #: the MeetingManager driving this calendar (it binds itself)
        self.manager: MeetingManager | None = None
        # Bump notifications deferred until the negotiation's unlock phase
        # (notifying mid-negotiation would nest negotiations under held locks).
        self._pending_bumps: dict[str, list[tuple[str, dict]]] = {}
        #: change applications per txn_id — the decision_agreement
        #: checker's ground truth (never cleared: a restart must not hide
        #: a pre-crash application from the checker).
        self.applied_changes: Counter = Counter()
        #: marks unilaterally released by the termination protocol
        self.terminated = 0

    # -- self-service (the user editing their own calendar) --------------------------

    @exported
    def block(self, entity: dict[str, int], note: str = "busy") -> dict[str, Any]:
        """Block one of the user's own free slots (non-negotiable)."""
        sid = entity_to_id(entity)
        row = self.calendar.slot(sid)
        if row["status"] != SlotStatus.FREE.value:
            raise SlotUnavailableError(f"slot {sid} is {row['status']}, cannot block")
        return self.calendar.block_slot(sid, note)

    @exported
    def unblock(self, entity: dict[str, int]) -> dict[str, Any]:
        """Free a previously blocked slot, firing availability triggers."""
        sid = entity_to_id(entity)
        row = self.calendar.slot(sid)
        if row["status"] != SlotStatus.BUSY.value:
            raise CalendarError(f"slot {sid} is {row['status']}, not blocked")
        freed = self.calendar.release_slot(sid)
        self._fire_availability(entity)
        return freed

    # -- negotiation verbs (§4.3) ----------------------------------------------------

    @exported
    def mark(
        self,
        entity: dict[str, int],
        txn_id: str,
        required_priority: int | None = None,
        meeting_id: str | None = None,
    ) -> bool:
        """Mark-for-change: can this slot be changed by this negotiation?

        Lockable when the slot is free, already belongs to the same
        meeting (re-reservation / tentative upgrade), or is occupied by a
        strictly lower-priority meeting and ``required_priority`` beats
        it (bump). ``busy`` slots (user-blocked) never negotiate.
        """
        sid = entity_to_id(entity)
        try:
            row = self.calendar.slot(sid)
        except CalendarError:
            return False
        status = row["status"]
        allowed = False
        if status == SlotStatus.FREE.value:
            allowed = True
        elif status in (SlotStatus.HELD.value, SlotStatus.RESERVED.value):
            if meeting_id is not None and row["meeting_id"] == meeting_id:
                allowed = True
            elif required_priority is not None and required_priority > row["priority"]:
                allowed = True
        if not allowed:
            return False
        return self.locks.try_lock(sid, txn_id)

    @exported
    def change(self, entity: dict[str, int], txn_id: str, change: dict[str, Any]) -> dict[str, Any]:
        """Apply the negotiated slot change (requires the txn's lock).

        ``change`` carries ``meeting_id``, ``status`` ("reserved" or
        "held") and ``priority``. If the slot was occupied by a different
        meeting, that meeting is bumped: the old occupant is recorded and
        its initiator is notified once the negotiation unlocks.
        """
        sid = entity_to_id(entity)
        if self.locks.holder(sid) != txn_id:
            raise LockNotHeldError(f"txn {txn_id} does not hold slot {sid}")
        row = self.calendar.slot(sid)
        old_meeting = row["meeting_id"]
        new_meeting = change["meeting_id"]
        if old_meeting and old_meeting != new_meeting and (
            not self.calendar.has_meeting(old_meeting)
            or self.calendar.set_meeting_status(old_meeting, MeetingStatus.BUMPED)
        ):
            # Bump: defer the notification until unlock. A copy that
            # refuses the mark (a cancelled meeting) needs no notice.
            self._pending_bumps.setdefault(txn_id, []).append((old_meeting, entity))
        self.applied_changes[txn_id] += 1
        return self.calendar.set_slot(
            sid,
            SlotStatus(change.get("status", "reserved")),
            meeting_id=new_meeting,
            priority=change.get("priority", 0),
            note=change.get("title"),
        )

    @exported
    def unmark(self, entity: dict[str, int], txn_id: str) -> bool:
        """Release the negotiation lock; flush deferred bump notifications."""
        sid = entity_to_id(entity)
        released = False
        if self.locks.holder(sid) == txn_id:
            self.locks.unlock(sid, txn_id)
            released = True
        self._flush_bumps(txn_id)
        return released

    @exported
    def release_txn_locks(self, owner_prefix: str) -> int:
        """Shed locks left by an initiator's dead negotiations.

        A crashed initiator never sent its best-effort unlock legs; on
        reconnect it broadcasts its ``txn-<node>-`` prefix here. Deferred
        bump notifications of the released transactions are flushed, as
        ``unmark`` would have done.
        """
        released = self.locks.release_prefix(owner_prefix)
        for txn_id in [t for t in self._pending_bumps if t.startswith(owner_prefix)]:
            self._flush_bumps(txn_id)
        return released

    @exported
    def release_ghost_slots(self, initiator_prefix: str, live_ids: list[str]) -> int:
        """Free occupied slots held for an initiator's meetings that the
        initiator no longer (or never) recorded as live.

        The companion of :meth:`release_txn_locks` for *applied* changes:
        an initiator that crashed mid-negotiation may have reserved slots
        at peers for a meeting it never got to store locally — the
        compensating release legs died with it, and no surviving record
        points at the residue. The initiator is authoritative for its own
        ``mtg-<user>-`` id namespace, so on reconnect it broadcasts the
        ids it still considers live; any occupied slot here referencing
        that namespace outside the live set is released (with availability
        triggers, as a normal release would fire).
        """
        from repro.datastore.predicate import where

        live = set(live_ids)
        released = 0
        occupied = self.calendar.store.select(
            "slots", (where("status") == "reserved") | (where("status") == "held")
        )
        for row in sorted(occupied, key=lambda r: r["slot_id"]):
            mid = row.get("meeting_id")
            if not mid or not mid.startswith(initiator_prefix) or mid in live:
                continue
            self.calendar.release_slot(row["slot_id"])
            self._fire_availability({"day": row["day"], "hour": row["hour"]})
            released += 1
        return released

    def terminate_stale_marks(self) -> dict[str, int]:
        """Participant-driven termination: resolve marks held past their
        lease by asking the owning coordinator's durable log.

        For every expired lock whose owner is a ``txn-<node>-<n>`` id,
        query that node's ``_syd_txn.txn_status``:

        * ``pending`` — the negotiation is genuinely still running
          (virtual time was pumped from a retry backoff); renew the lease
          and keep waiting.
        * ``commit`` / ``abort`` — the decision is durable and the unlock
          leg simply never reached us; release the mark (commit keeps the
          slot contents — only the protocol lock is shed).
        * unreachable / unparseable owner — the lease already ran out, so
          release unilaterally (presumed-abort: a coordinator that never
          logged a commit can only abort).

        Deferred bump notifications of released transactions are flushed,
        exactly as ``unmark`` would have done. Returns
        ``{"released": n, "renewed": m}``.
        """
        from repro.util.trace import maybe_span

        now = self.engine.transport.clock.now()
        counts = {"released": 0, "renewed": 0}
        stale = self.locks.expired(now)
        if not stale:
            return counts
        tracer = getattr(self.engine.transport, "tracer", None)
        with maybe_span(
            tracer, "cal.terminate_sweep", self.user, stale=len(stale)
        ) as span:
            for key, owner, _deadline in stale:
                if not isinstance(owner, str):
                    continue
                node_id = coordinator_node_of(owner)
                status = "unknown"
                if node_id is not None:
                    try:
                        status = self.engine.execute_on_node(
                            node_id, TXN_STATUS_OBJECT, "txn_status", owner
                        )
                    except ReproError:
                        status = "unknown"
                if status == "pending":
                    self.locks.renew(key, owner)
                    counts["renewed"] += 1
                    continue
                self.locks.force_release(key)
                self.terminated += 1
                counts["released"] += 1
                self._flush_bumps(owner)
            span.set(**counts)
        return counts

    # -- lifecycle operations invoked by peers -------------------------------------------

    @exported
    def release_slot(self, entity: dict[str, int], meeting_id: str) -> bool:
        """Free the slot held by ``meeting_id`` and fire availability
        triggers (waiting tentative links, subscription links)."""
        if not super().release_slot(entity, meeting_id):
            return False
        self._fire_availability(entity)
        return True

    @exported
    def withdraw_slot(self, entity: dict[str, int], meeting_id: str) -> bool:
        """This user voluntarily pulls out of ``meeting_id`` at ``entity``.

        Unlike :meth:`release_slot`, withdrawal is *not* an availability
        announcement: tentative links stay queued, and subscription links
        fire with ``available: False`` so initiators learn the user
        changed their schedule (§5's supervisor-B case) rather than that
        the slot is up for grabs.
        """
        sid = entity_to_id(entity)
        row = self.calendar.slot(sid)
        if row["meeting_id"] != meeting_id:
            return False
        self.calendar.release_slot(sid)
        self.links.fire_subscriptions(
            entity, {"user": self.user, "available": False, "meeting_id": meeting_id}
        )
        return True

    @exported
    def direct_write_slot(
        self, entity: dict[str, int], meeting_id: str, priority: int = 0, title: str | None = None
    ) -> dict[str, Any]:
        """UNSAFE direct reservation — no mark/lock, last write wins.

        Exists only for the E10 ablation, modeling "current practice"
        clients that write entries straight after a free/busy enquiry
        (the race the paper calls out: "during the delay between the
        enquiry for the empty slots and the actual scheduling, the
        status of the participants may have changed"). Production flows
        must use the negotiation verbs.
        """
        sid = entity_to_id(entity)
        return self.calendar.set_slot(
            sid, SlotStatus.RESERVED, meeting_id=meeting_id, priority=priority, note=title
        )

    # -- link callbacks (remote ends of coordination links) --------------------------------

    @exported
    def on_participant_available(self, entity: dict[str, int], payload: dict[str, Any]) -> None:
        """A tentative back link fired: someone we waited on is free (§5)."""
        self.bus.publish(
            "calendar.participant_available",
            meeting_id=payload.get("meeting_id"),
            user=payload.get("user"),
            entity=entity,
        )

    @exported
    def on_meeting_bumped(self, meeting_id: str, payload: dict[str, Any]) -> None:
        """One of our meetings lost a slot to a higher-priority meeting."""
        self.bus.publish(
            "calendar.meeting_bumped",
            meeting_id=meeting_id,
            user=payload.get("user"),
            entity=payload.get("entity"),
        )

    @exported
    def on_supervisor_changed(self, entity: dict[str, int], payload: dict[str, Any]) -> None:
        """A supervisor's subscription back link fired (§5: B changed)."""
        self.bus.publish(
            "calendar.supervisor_changed",
            meeting_id=payload.get("meeting_id"),
            user=payload.get("user"),
            entity=entity,
        )

    @exported
    def on_peer_change(self, entity: dict[str, int], payload: dict[str, Any]) -> None:
        """Generic subscription notification from a peer's slot change."""
        self.bus.publish(
            "calendar.peer_changed",
            user=payload.get("user"),
            entity=entity,
            payload=payload,
        )

    @exported
    def move_requested(
        self, meeting_id: str, user: str, new_slot: dict[str, int] | None = None
    ) -> bool:
        """A participant asks this (initiator) node to move the meeting."""
        meeting = self.calendar.meeting(meeting_id)
        if user not in meeting.participants:
            return False
        return self._manager().move_meeting(meeting_id, new_slot) is not None

    @exported
    def schedule_as_delegate(
        self, delegate: str, title: str, participants: list[str], options: dict[str, Any]
    ) -> dict[str, Any]:
        """Schedule with this user's authority on behalf of ``delegate``
        (§5 delegation). Raises when no delegation was granted."""
        return self._manager().schedule_for_delegate(
            delegate, title, participants, dict(options)
        )

    @exported
    def request_drop_out(self, meeting_id: str, user: str) -> dict[str, Any]:
        """A participant asks this (initiator) node to leave ``meeting_id``.

        Delegated to the MeetingManager bound via ``manager``; §5's rule:
        an or-group member may only leave "if an additional commitment is
        found" or the quorum still holds.
        """
        return self._manager().handle_drop_request(meeting_id, user)

    # -- internal -------------------------------------------------------------------

    def _manager(self) -> MeetingManager:
        if self.manager is None:
            raise CalendarError(f"{self.user} has no meeting manager bound")
        return self.manager

    def _fire_availability(self, entity: dict[str, int]) -> None:
        """A slot of ours became free: trigger the waiting machinery.

        1. Fire permanent subscription links on this entity (automatic
           information flow to initiators/supervised meetings).
        2. Trigger the highest-priority *tentative* link queued at this
           slot, informing its target of our availability.
        """
        self.links.fire_subscriptions(entity, {"user": self.user, "available": True})
        tentative = [
            ln
            for ln in self.links.links_for_entity(entity)
            if ln.subtype is LinkSubtype.TENTATIVE
        ]
        if not tentative:
            return
        best = max(tentative, key=lambda ln: (ln.priority, -ln.created_at))
        payload = {
            "meeting_id": best.context.get("meeting_id"),
            "user": self.user,
            "link_id": best.link_id,
        }
        for ref in best.refs:
            if ref.on_change is not None:
                self.fan_out([ref.user], (ref.on_change, ref.entity, payload), service=ref.service)

    def _flush_bumps(self, txn_id: str) -> None:
        """Tell the initiator of each meeting ``txn_id`` bumped here that
        it lost the slot; ``change`` defers these notices until the
        transaction's locks are gone."""
        for meeting_id, entity in self._pending_bumps.pop(txn_id, []):
            if self.calendar.has_meeting(meeting_id):
                self.fan_out(
                    [self.calendar.meeting(meeting_id).initiator],
                    ("on_meeting_bumped", meeting_id, {"user": self.user, "entity": entity}),
                )

    def fan_out(
        self, users: Iterable[str], *calls: tuple, service: str = CAL_SERVICE
    ) -> dict[str, Any]:
        """Make each ``(method, *args)`` of ``calls`` at every user of
        ``users``, in order: here for this user's own calendar, through
        the engine for everyone else. Best effort: a user is skipped from
        their first :class:`NetworkError` on, and any other error
        propagates. Returns each user reached, with the result of their
        last call.
        """
        reached: dict[str, Any] = {}
        for user in users:
            local = user == self.user and service == CAL_SERVICE
            try:
                for method, *args in calls:
                    if local:
                        result = getattr(self, method)(*args)
                    else:
                        result = self.engine.execute(user, service, method, *args)
            except NetworkError:
                continue
            reached[user] = result
        return reached
