"""System-wide invariant checkers for chaos episodes.

Run after an episode's network is healed and disturbed devices have
reconciled. Each checker inspects the *whole* deployment and returns
:class:`Violation` records; a clean system returns none.

Conventions: the **initiator's copy** of a meeting is authoritative (the
initiator drives every lifecycle transition). "Live" means confirmed or
tentative.

Checks:

* ``double_booking``   — no user is committed to two live meetings that
  claim the same slot of their calendar.
* ``commitment``       — every committed user of a live authoritative
  meeting actually holds the meeting's slot (reserved when confirmed,
  held/reserved when tentative) and their own copy agrees on status.
* ``orphaned_slot``    — no reserved/held slot references a meeting the
  owning calendar does not know as live (the all-or-nothing negotiation
  residue detector).
* ``dead_meeting_slot``— no slot anywhere still references a cancelled or
  bumped authoritative meeting.
* ``double_application`` — no idempotency key executed side effects more
  than once anywhere (the exactly-once dispatch property; duplicates and
  retried lost-reply requests must replay, not re-execute).
* ``lock_residue``     — all entity locks are released at quiescence
  (negotiations unlock in ``finally``; a lost unmark leg shows up here).
* ``decision_agreement`` — every transaction that applied a ``change`` at
  any participant has a durable commit decision at its coordinator (the
  presumed-abort safety property: no effect without a logged commit).
* ``no_stranded_marks`` — once the fleet quiesces, no entity lock is
  still held past its lease deadline (the participant termination
  protocol and crash recovery must have resolved them).
* ``no_lease_overrun`` — no negotiation held its locks past the
  coordinator's lease limit (deadline budgets must abort first even
  against stalled or pareto-slow participants).
* ``no_false_deaths``  — the phi-accrual detector never quarantined a
  node that was healthy by fault-plan ground truth.
* ``directory_cache``  — every node's cached lookups agree with the
  directory service and the cache epoch matches after heal.
* ``wal_recovery``     — replaying each store's change journal onto its
  episode-start snapshot reproduces the store's current contents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.calendar.app import SyDCalendarApp
from repro.calendar.model import MeetingStatus, SlotStatus, entity_to_id
from repro.datastore.snapshot import export_store, import_into
from repro.datastore.store import RelationalStore
from repro.datastore.wal import ChangeJournal, replay
from repro.util.errors import ReproError
from repro.world import SyDWorld

# Declared here, not imported from ``calendar.model``: the oracle stays
# independent of the status policy it checks.
LIVE = (MeetingStatus.CONFIRMED, MeetingStatus.TENTATIVE)


@dataclass(frozen=True)
class Violation:
    """One invariant breach at one user.

    ``trace_id`` names the trace of the operation that produced the bad
    state, when the checker can attribute it (via the coordinator's
    ``txn_traces`` or a listener's ``effect_traces``) — load the
    episode's exported timeline and filter on it to see the failing
    protocol run end to end.
    """

    check: str
    user: str
    detail: str
    trace_id: str | None = None

    def __str__(self) -> str:
        base = f"{self.check} @ {self.user}: {self.detail}"
        return f"{base} [trace {self.trace_id}]" if self.trace_id else base


def _authoritative_meetings(app: SyDCalendarApp):
    """(owner, Meeting) for every initiator-held meeting copy, in
    deterministic user order."""
    for user in sorted(app.users):
        for meeting in app.calendar(user).meetings():
            if meeting.initiator == user:
                yield user, meeting


def check_double_booking(app: SyDCalendarApp) -> list[Violation]:
    claims: dict[tuple[str, str], list[str]] = {}
    for _owner, meeting in _authoritative_meetings(app):
        if meeting.status not in LIVE:
            continue
        sid = entity_to_id(meeting.slot)
        for user in meeting.committed:
            claims.setdefault((user, sid), []).append(meeting.meeting_id)
    return [
        Violation("double_booking", user, f"slot {sid} claimed by {sorted(mids)}")
        for (user, sid), mids in sorted(claims.items())
        if len(mids) > 1
    ]


def check_commitments(app: SyDCalendarApp) -> list[Violation]:
    out: list[Violation] = []
    for _owner, meeting in _authoritative_meetings(app):
        if meeting.status not in LIVE:
            continue
        want = (
            (SlotStatus.RESERVED.value,)
            if meeting.status is MeetingStatus.CONFIRMED
            else (SlotStatus.RESERVED.value, SlotStatus.HELD.value)
        )
        for user in meeting.committed:
            if user not in app.users:
                continue
            slot = app.calendar(user).slot_of(meeting.slot)
            if slot["meeting_id"] != meeting.meeting_id or slot["status"] not in want:
                out.append(
                    Violation(
                        "commitment",
                        user,
                        f"{meeting.meeting_id} ({meeting.status.value}) expects "
                        f"the slot, found {slot['status']}:{slot['meeting_id']}",
                    )
                )
            copy = app.meeting_view(user, meeting.meeting_id)
            if copy is None or copy.status is not meeting.status:
                out.append(
                    Violation(
                        "commitment",
                        user,
                        f"copy of {meeting.meeting_id} is "
                        f"{copy.status.value if copy else 'missing'}, "
                        f"initiator says {meeting.status.value}",
                    )
                )
    return out


def check_orphaned_slots(app: SyDCalendarApp) -> list[Violation]:
    out: list[Violation] = []
    occupied = (SlotStatus.RESERVED.value, SlotStatus.HELD.value)
    for user in sorted(app.users):
        calendar = app.calendar(user)
        from repro.datastore.predicate import where

        rows = calendar.store.select(
            "slots",
            (where("status") == occupied[0]) | (where("status") == occupied[1]),
        )
        for row in sorted(rows, key=lambda r: r["slot_id"]):
            mid = row.get("meeting_id")
            if mid is None:
                out.append(
                    Violation("orphaned_slot", user, f"{row['slot_id']} {row['status']} without meeting id")
                )
                continue
            if not calendar.has_meeting(mid):
                out.append(
                    Violation("orphaned_slot", user, f"{row['slot_id']} references unknown {mid}")
                )
            elif calendar.meeting(mid).status not in LIVE:
                out.append(
                    Violation(
                        "orphaned_slot",
                        user,
                        f"{row['slot_id']} references {calendar.meeting(mid).status.value} {mid}",
                    )
                )
    return out


def check_dead_meeting_slots(app: SyDCalendarApp) -> list[Violation]:
    out: list[Violation] = []
    dead = {
        meeting.meeting_id
        for _o, meeting in _authoritative_meetings(app)
        if meeting.status not in LIVE
    }
    if not dead:
        return out
    for user in sorted(app.users):
        calendar = app.calendar(user)
        for mid in sorted(dead):
            for row in calendar.slots_of_meeting(mid):
                if row["status"] in (SlotStatus.RESERVED.value, SlotStatus.HELD.value):
                    out.append(
                        Violation("dead_meeting_slot", user, f"{row['slot_id']} still holds {mid}")
                    )
    return out


def check_double_application(world: SyDWorld) -> list[Violation]:
    """No idempotency key executed its side effects more than once.

    Every listener counts handler executions per idempotency key in
    ``listener.effects`` (incremented immediately before the target
    method runs, and deliberately never cleared — not even by a restart).
    Under exactly-once dispatch a key executes at most once no matter how
    often the network re-delivers it; any count above one means a
    duplicate or a retried lost-reply request re-ran a side effect.
    """
    out: list[Violation] = []
    listeners = world.directory_listeners() + [
        (user, node.listener) for user, node in sorted(world.nodes.items())
    ]
    for user, listener in listeners:
        doubled = sorted(
            (key, count) for key, count in listener.effects.items() if count > 1
        )
        for key, count in doubled[:5]:
            out.append(
                Violation(
                    "double_application",
                    user,
                    f"key {key} executed {count} times",
                    trace_id=listener.effect_traces.get(key),
                )
            )
        if len(doubled) > 5:
            out.append(
                Violation(
                    "double_application",
                    user,
                    f"... and {len(doubled) - 5} more double-executed keys",
                )
            )
    return out


def check_lock_residue(world: SyDWorld) -> list[Violation]:
    return [
        Violation("lock_residue", user, f"{node.locks.locked_count()} locks still held")
        for user, node in sorted(world.nodes.items())
        if node.locks.locked_count() != 0
    ]


def check_decision_agreement(app: SyDCalendarApp, world: SyDWorld) -> list[Violation]:
    """Every applied change belongs to a durably committed transaction.

    Each calendar service counts ``change`` applications per txn_id
    (``applied_changes``, never cleared). The coordinator that minted the
    txn id must hold a durable ``DECIDE(commit)`` record for it: a
    participant that applied a change for a transaction whose coordinator
    cannot produce a commit record has acted on a decision that was never
    made durable — exactly the split the intent log exists to prevent.
    """
    from repro.txn.status import coordinator_node_of

    out: list[Violation] = []
    coordinators = {node.node_id: node for node in world.nodes.values()}
    for user in sorted(app.users):
        for txn_id in sorted(app.service(user).applied_changes):
            node_id = coordinator_node_of(txn_id)
            coordinator = coordinators.get(node_id) if node_id else None
            if coordinator is None:
                out.append(
                    Violation(
                        "decision_agreement",
                        user,
                        f"change applied for {txn_id} with no resolvable coordinator",
                    )
                )
            elif not coordinator.coordinator.intents.has_commit(txn_id):
                out.append(
                    Violation(
                        "decision_agreement",
                        user,
                        f"change applied for {txn_id} but coordinator "
                        f"{node_id} has no durable commit record",
                        trace_id=coordinator.coordinator.txn_traces.get(txn_id),
                    )
                )
    return out


def check_stranded_marks(world: SyDWorld) -> list[Violation]:
    """No lock outlives its lease once the fleet quiesces."""
    from repro.txn.status import coordinator_node_of

    now = world.clock.now()
    coordinators = {node.node_id: node for node in world.nodes.values()}
    out: list[Violation] = []
    for user, node in sorted(world.nodes.items()):
        for key, owner, deadline in node.locks.expired(now):
            # The lock owner is a txn id; its coordinator (if it still
            # exists) remembers which trace ran the negotiation.
            coord_id = coordinator_node_of(owner)
            coord = coordinators.get(coord_id) if coord_id else None
            trace_id = coord.coordinator.txn_traces.get(owner) if coord else None
            out.append(
                Violation(
                    "no_stranded_marks",
                    user,
                    f"{key!r} held by {owner} past lease "
                    f"(deadline {deadline:.2f}, now {now:.2f})",
                    trace_id=trace_id,
                )
            )
    return out


def check_lease_overrun(world: SyDWorld) -> list[Violation]:
    """No negotiation held its entity locks past the coordinator's lease.

    Each coordinator audits every completed negotiation's wall (virtual)
    hold time against ``lease_limit`` into ``lease_overruns``. With
    deadline budgets on, a coordinator must abort before its lease runs
    out no matter how sick a participant is — an overrun means a gray
    node (a stall, a pareto tail) ate the whole lease, which is exactly
    what the budget arithmetic exists to prevent.
    """
    out: list[Violation] = []
    for user, node in sorted(world.nodes.items()):
        for txn_id, held, limit in node.coordinator.lease_overruns:
            out.append(
                Violation(
                    "no_lease_overrun",
                    user,
                    f"{txn_id} held locks {held:.3f}s > lease {limit:.1f}s",
                    trace_id=node.coordinator.txn_traces.get(txn_id),
                )
            )
    return out


def check_no_false_deaths(world: SyDWorld) -> list[Violation]:
    """The failure detector never quarantined a genuinely healthy node.

    Every time suspicion crosses the quarantine bar and a caller skips a
    node outright, the engine records a verdict stamped with fault-plan
    ground truth. A verdict against a node that was reachable, unstalled,
    unslowed and undegraded at that moment is a false death — adaptive
    routing turned into a self-inflicted outage.
    """
    if world.health is None:
        return []
    return [
        Violation(
            "no_false_deaths",
            node_id,
            f"quarantined healthy node at t={when:.2f} (phi {phi:.2f})",
        )
        for when, node_id, phi, healthy in world.health.verdicts
        if healthy
    ]


def check_directory_cache(world: SyDWorld) -> list[Violation]:
    """Cached lookups agree with directory truth; fill epochs are current.

    Sharded worlds generalize both halves: truth is the *primary owner's*
    record (read through the in-process facade), and the epoch check runs
    per shard — for every shard bucket the loop's lookups touched, the
    cache's fill epoch must equal that shard's own epoch. Buckets the
    loop did not touch are allowed to lag (per-shard invalidation is
    lazy: they flush on their next access).
    """
    out: list[Violation] = []
    service = world.directory_service
    topology = world.directory_topology
    for user, node in sorted(world.nodes.items()):
        cache = node.directory.cache
        if cache is None:
            continue
        touched: set[str] = set()
        for target in sorted(world.nodes):
            try:
                cached = node.directory.lookup_user(target)
                truth = service.lookup_user(target)
            except ReproError as exc:
                out.append(
                    Violation("directory_cache", user, f"lookup {target}: {type(exc).__name__}")
                )
                continue
            touched.add(
                topology.primary_shard_for(("user", target)) if topology else ""
            )
            if cached != truth:
                out.append(
                    Violation(
                        "directory_cache",
                        user,
                        f"cached record for {target} diverges: {cached} != {truth}",
                    )
                )
        filled = cache.filled_epochs()
        for bucket in sorted(touched):
            want = topology.epoch_of(bucket) if topology else service.epoch
            got = filled.get(bucket)
            if got is not None and got != want:
                label = f"shard {bucket}" if topology else "directory"
                out.append(
                    Violation(
                        "directory_cache",
                        user,
                        f"cache epoch {got} != {label} epoch {want}",
                    )
                )
    return out


def _normalized_tables(snapshot: dict[str, Any]) -> dict[str, list[str]]:
    return {
        table: sorted(
            json.dumps(row, sort_keys=True, default=str) for row in blob["rows"]
        )
        for table, blob in snapshot["tables"].items()
    }


def check_wal_recovery(
    world: SyDWorld,
    baselines: dict[str, dict[str, Any]],
    journals: dict[str, ChangeJournal],
) -> list[Violation]:
    out: list[Violation] = []
    for user in sorted(baselines):
        recovered = RelationalStore(f"recovered-{user}")
        import_into(recovered, baselines[user])
        try:
            replay(journals[user], recovered)
        except ReproError as exc:
            out.append(Violation("wal_recovery", user, f"replay failed: {exc}"))
            continue
        got = _normalized_tables(export_store(recovered))
        want = _normalized_tables(export_store(world.node(user).store))
        if got != want:
            diff_tables = sorted(t for t in want if got.get(t) != want[t])
            out.append(
                Violation(
                    "wal_recovery",
                    user,
                    f"snapshot+journal diverges from store in tables {diff_tables}",
                )
            )
    return out


def run_invariant_checks(
    app: SyDCalendarApp,
    world: SyDWorld,
    baselines: dict[str, dict[str, Any]] | None = None,
    journals: dict[str, ChangeJournal] | None = None,
) -> list[Violation]:
    """Run every checker; returns all violations (empty = clean)."""
    violations: list[Violation] = []
    violations += check_double_booking(app)
    violations += check_commitments(app)
    violations += check_orphaned_slots(app)
    violations += check_dead_meeting_slots(app)
    violations += check_double_application(world)
    violations += check_lock_residue(world)
    violations += check_decision_agreement(app, world)
    violations += check_stranded_marks(world)
    violations += check_lease_overrun(world)
    violations += check_no_false_deaths(world)
    violations += check_directory_cache(world)
    if baselines and journals:
        violations += check_wal_recovery(world, baselines, journals)
    return violations
