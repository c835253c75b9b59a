"""Negotiation-link execution: the §4.3 semantics, literally.

The paper defines negotiation links operationally::

    Negotiation-and:  Mark A for change and Lock A
                      If successful Mark B and C for change and Lock B and C
                      If successful Change A; Change B and C
                      Unlock B and C;  Unlock A

    Negotiation-xor:  ... Obtain locks on those entities that can be
                      successfully changed. If obtained exactly one lock
                      then Change A; Change the locked entities ...

    Negotiation-or:   ... If obtained at least one lock then Change A;
                      Change the locked entities ...

with the and/or/xor logic "extended to exactly k out of n / at least k
out of n". :class:`NegotiationCoordinator` runs that protocol over the
SyDEngine against remote participants' ``mark`` / ``change`` / ``unmark``
service methods, records every activity node in a
:class:`~repro.util.trace.Tracer` (this is what reproduces Figure 4), and
guarantees all-or-nothing effects: no ``change`` happens anywhere unless
the constraint is satisfied, and every acquired lock is released on every
path.

Each protocol phase — mark targets, change the locked, unlock — travels
as **one scatter-gather batch** (``SyDEngine.execute_calls``), mirroring
the prototype's concurrent RMI legs: a negotiation over n targets costs
~three round trips of virtual time instead of O(n). Message counts and
the Figure-4 trace order are unchanged; a target whose leg fails with a
network error in the mark phase simply counts as refusing, exactly as in
the sequential protocol.

Delivery faults: every verb travels as a dedup-stamped RPC, so a
retried ``mark``/``change``/``unmark`` whose first reply was lost is
*replayed* from the receiver's cache, never re-executed (see
:mod:`repro.net.dedup`) — re-marking cannot double-acquire the reentrant
entity lock. When a mark leg still fails with a network error after
retries its outcome is unknown (the lock may have landed with only the
reply lost); the coordinator then sends a compensating unmark, which is
owner-checked and therefore harmless if the mark never applied.

Crash safety: each protocol step is preceded by a durable intent record
(:class:`~repro.txn.log.IntentLog`) — ``BEGIN`` before the first mark,
``DECIDE(commit)`` before the first change, ``END`` after the unlock
epilogue. The protocol is *presumed-abort*: a ``BEGIN`` with no durable
commit decision aborts, so the (common) abort path costs no forced log
write beyond ``BEGIN``/``END``. A coordinator that dies mid-protocol
(the chaos ``coord_crash`` fault raises :class:`CoordinatorCrashed` at
an armed phase) deliberately skips the epilogue; :meth:`recover` — run
by ``SyDWorld.restart`` — replays the log and resolves every in-flight
transaction: commit decisions roll forward (re-send ``change`` to the
recorded locked set, then unlock everywhere), everything else rolls back
(unlock everywhere). Participants do not have to wait for the
coordinator: a lock held past its lease triggers the participant-driven
termination protocol (``txn_status`` query against the durable log — see
:class:`~repro.txn.status.TxnStatusService`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.kernel.engine import CallOutcome, CallSpec, SyDEngine
from repro.txn.log import IntentLog
from repro.util.errors import (
    CoordinatorCrashed,
    NetworkError,
    Overloaded,
    ReproError,
)
from repro.util.trace import Tracer


class ConstraintKind(str, Enum):
    """Logic connecting a negotiation link's targets."""

    AND = "and"
    OR = "or"
    XOR = "xor"
    AT_LEAST_K = "at_least_k"
    EXACTLY_K = "exactly_k"


@dataclass(frozen=True)
class Constraint:
    """A constraint kind plus its ``k`` parameter where applicable."""

    kind: ConstraintKind
    k: int | None = None

    def __post_init__(self):
        if self.kind in (ConstraintKind.AT_LEAST_K, ConstraintKind.EXACTLY_K):
            if self.k is None or self.k < 0:
                raise ValueError(f"{self.kind.value} requires k >= 0")

    def satisfied(self, locked: int, total: int) -> bool:
        """Is the constraint met by ``locked`` of ``total`` lockable targets?"""
        if self.kind is ConstraintKind.AND:
            return locked == total
        if self.kind is ConstraintKind.OR:
            return locked >= 1
        if self.kind is ConstraintKind.XOR:
            return locked == 1
        if self.kind is ConstraintKind.AT_LEAST_K:
            return locked >= (self.k or 0)
        return locked == self.k  # EXACTLY_K

    def describe(self) -> str:
        if self.k is not None:
            return f"{self.kind.value}(k={self.k})"
        return self.kind.value


#: Convenience instances matching the paper's three named link types.
AND = Constraint(ConstraintKind.AND)
OR = Constraint(ConstraintKind.OR)
XOR = Constraint(ConstraintKind.XOR)


def at_least(k: int) -> Constraint:
    """`at least k out of n` (paper: OR "extended to at least k of n")."""
    return Constraint(ConstraintKind.AT_LEAST_K, k)


def exactly(k: int) -> Constraint:
    """`exactly k out of n` (paper: XOR "extended to exactly k of n")."""
    return Constraint(ConstraintKind.EXACTLY_K, k)


@dataclass(frozen=True)
class Participant:
    """One entity in a negotiation.

    ``user`` owns the entity; ``service`` names the published service
    whose ``mark_method(entity, txn_id, *mark_args)`` /
    ``change_method(entity, txn_id, change)`` /
    ``unmark_method(entity, txn_id)`` implement the protocol verbs on
    that user's device. ``mark_args`` lets applications pass extra
    mark-time context — the calendar uses it to carry the requesting
    meeting's priority so lower-priority reservations can be bumped.
    """

    user: str
    entity: Any
    service: str
    mark_method: str = "mark"
    change_method: str = "change"
    unmark_method: str = "unmark"
    mark_args: tuple = ()


@dataclass
class NegotiationResult:
    """Outcome of one negotiation execution."""

    ok: bool
    constraint: str
    txn_id: str
    locked: list[str] = field(default_factory=list)      # users that could change
    refused: list[str] = field(default_factory=list)     # users that could not
    changed: list[str] = field(default_factory=list)     # users actually changed
    failure_reason: str | None = None


def _ref(p: Participant) -> dict[str, Any]:
    """JSON-able participant reference for the durable intent log."""
    return {
        "user": p.user,
        "entity": p.entity,
        "service": p.service,
        "mark_method": p.mark_method,
        "change_method": p.change_method,
        "unmark_method": p.unmark_method,
    }


class NegotiationCoordinator:
    """Drives the mark/lock → constraint check → change → unlock protocol."""

    def __init__(
        self,
        engine: SyDEngine,
        tracer: Tracer | None = None,
        intent_log=None,
        metrics=None,
        metrics_node: str = "",
    ):
        self.engine = engine
        self.tracer = tracer or Tracer()
        #: durable (or, without a store, volatile) BEGIN/DECIDE/END log
        self.intents = intent_log if intent_log is not None else IntentLog()
        #: optional MetricsRegistry sink (txn.shed, txn.lease_overrun)
        self.metrics = metrics
        self.metrics_node = metrics_node
        #: the participants' lock-lease length this coordinator must stay
        #: inside — a completed (non-crashed) negotiation that held marks
        #: longer is recorded in ``lease_overruns`` (the
        #: ``no_lease_overrun`` invariant audits the list)
        self.lease_limit = 20.0
        #: per-negotiation deadline budget in seconds (None = unbudgeted).
        #: The world derives it from the lease when adaptive robustness is
        #: on, so a gray participant's stalled replies cannot make this
        #: coordinator hold locks past the participants' own lease.
        self.lease_budget: float | None = None
        #: bounded admission: re-entrant negotiations stacked past this
        #: depth are shed with a retryable :class:`Overloaded` instead of
        #: growing the busy/defer path without bound
        self.admission_limit = 4
        self.shed = 0
        #: (txn_id, held_seconds, lease_limit) for every completed
        #: negotiation that outheld the lease
        self.lease_overruns: list[tuple[str, float, float]] = []
        self._txn_counter = 0
        self._depth = 0
        #: txn ids currently on the execute stack (recovery must not touch
        #: them: a restart pumped from a retry backoff races the live frame)
        self._active: set[str] = set()
        #: armed mid-protocol crash phase (chaos ``coord_crash``), one-shot
        self._crash_phase: str | None = None
        #: notified with (txn_id, phase) just before the armed crash fires
        self.on_crash: Callable[[str, str], None] | None = None
        self.executed = 0
        self.committed = 0
        self.recovered_commits = 0
        self.recovered_aborts = 0
        #: txn_id -> trace_id of the negotiation that ran it. Observability
        #: state (like ``SyDListener.effects``): never cleared, so invariant
        #: violations found after a crash can still name the trace.
        self.txn_traces: dict[str, str] = {}

    @property
    def busy(self) -> bool:
        """A negotiation is on the stack (possible when virtual time is
        pumped from inside a retry backoff)."""
        return self._depth > 0

    def active_txns(self) -> frozenset[str]:
        """Txn ids currently executing (``txn_status`` answers ``pending``)."""
        return frozenset(self._active)

    # -- crash injection ---------------------------------------------------------

    def arm_crash(self, phase: str) -> None:
        """Arm a one-shot :class:`CoordinatorCrashed` at ``phase`` —
        ``after-mark``, ``after-decide``, or ``after-partial-change`` —
        of the next negotiation that reaches it."""
        self._crash_phase = phase

    def disarm_crash(self) -> None:
        self._crash_phase = None

    def _maybe_crash(self, phase: str, txn_id: str) -> None:
        if self._crash_phase != phase:
            return
        self._crash_phase = None  # one-shot: recovery must not re-trip it
        if self.on_crash is not None:
            self.on_crash(txn_id, phase)
        raise CoordinatorCrashed(f"coordinator died {phase} in {txn_id}")

    def _next_txn_id(self) -> str:
        self._txn_counter += 1
        return f"txn-{self.engine.node_id}-{self._txn_counter}"

    def execute(
        self,
        initiator: Participant,
        targets: list[Participant],
        constraint: Constraint,
        change: Any = None,
    ) -> NegotiationResult:
        """Run one negotiation; returns the result (never raises for
        ordinary refusals — only for protocol-breaking errors).

        ``change`` is passed through to every ``change_method`` so the
        application can say *what* to change the entities to.
        """
        return self.execute_multi(initiator, [(targets, constraint)], change)

    def execute_multi(
        self,
        initiator: Participant,
        groups: list[tuple[list[Participant], Constraint]],
        change: Any = None,
    ) -> NegotiationResult:
        """Run one negotiation over several constraint groups atomically.

        The paper's quorum scenario (§5) composes constraints: "a
        negotiation-and link to B and C, a negotiation-or link (at least
        k of n type) to all in Biology ... and a negotiation-or link to
        all in Physics with k = 2. On successful reservation of all
        entities, slots are reserved" — i.e. one atomic mark/lock pass
        where *every* group's constraint must hold before anything
        changes. ``execute`` is the single-group special case.
        """
        # Bounded admission: shedding early (with a typed, retryable
        # error) beats stacking re-entrant negotiations whose backoffs
        # pump yet more deferred work onto the same coordinator.
        # ``admit_t`` is taken before the check so the span below can
        # report the admission-queue wait honestly — structurally 0.0
        # under this shed-immediately policy (nothing ever queues), but
        # measured, not assumed, so a future queued-admission policy
        # feeds the ``queue`` attribution category with no further work.
        admit_t = self.engine.transport.clock.now()
        admit_depth = self._depth
        if self._depth >= self.admission_limit:
            self.shed += 1
            if self.metrics is not None:
                self.metrics.inc(self.metrics_node, "txn.shed")
            raise Overloaded(
                f"coordinator {self.engine.node_id}: {self._depth} negotiations "
                f"in flight (admission limit {self.admission_limit})"
            )
        txn_id = self._next_txn_id()
        described = " & ".join(c.describe() for _, c in groups) or "and"
        result = NegotiationResult(ok=False, constraint=described, txn_id=txn_id)
        self.executed += 1
        trace = self.tracer
        all_targets = [t for targets, _constraint in groups for t in targets]
        clock = self.engine.transport.clock
        t0 = clock.now()
        # Per-phase deadline budget, derived from the participants' lock
        # lease: every pre-decide wave (and its retry backoffs) is capped
        # by one absolute deadline, so a stalled participant can delay
        # this negotiation by at most the budget — never past the lease.
        deadline = t0 + self.lease_budget if self.lease_budget is not None else None

        # The whole protocol runs under one span (closed in the finally
        # block, after the unlock epilogue). Its trace id is remembered in
        # ``txn_traces`` and written into the durable BEGIN payload, so a
        # recovery replay — possibly on a different incarnation, long
        # after this span closed — can link back to the original trace.
        span = trace.start_span(
            "txn.negotiate", self.engine.node_id, txn=txn_id, constraint=described
        )
        if admit_depth:
            span.set(admission_depth=admit_depth)
        admission_wait = t0 - admit_t
        if admission_wait > 0.0:
            span.set(admission_wait=round(admission_wait, 9))
        ctx = trace.current_context()
        if ctx is not None:
            self.txn_traces[txn_id] = ctx[0]

        # BEGIN before the first mark: a crash anywhere past this point
        # leaves a durable in-flight record for recovery to resolve. (The
        # guard keeps the span stack balanced if the durable write itself
        # fails — the main finally block below is not armed yet.)
        try:
            self.intents.begin(
                txn_id,
                {
                    "initiator": _ref(initiator),
                    "targets": [_ref(t) for t in all_targets],
                    "change": change,
                    "trace_id": self.txn_traces.get(txn_id),
                },
            )
        except BaseException as exc:
            trace.end_span(span, error=type(exc).__name__)
            raise

        locked: list[Participant] = []
        #: mark legs whose outcome is unknown (network error after retries)
        unknown_marks: list[Participant] = []
        initiator_marked = False
        initiator_unknown = False
        crashed = False
        # The depth guard goes up before *any* protocol traffic — the
        # initiator mark included — so ``busy`` can never read False while
        # a retry backoff pumps virtual time mid-negotiation, and the
        # finally-block below makes it impossible for ``busy`` to stick
        # True after any exception.
        self._depth += 1
        self._active.add(txn_id)
        try:
            # Step 1: Mark A for change and Lock A.
            trace.record(initiator.user, "mark", entity=initiator.entity, txn=txn_id)
            initiator_marked, initiator_unknown = self._mark(initiator, txn_id, deadline)
            if not initiator_marked:
                result.failure_reason = f"initiator {initiator.user} could not be marked"
                trace.record(initiator.user, "abort", reason="initiator-mark-failed")
                return result
            trace.record(initiator.user, "lock", entity=initiator.entity, txn=txn_id)

            # Step 2: Mark every target — one concurrent batch across all
            # groups — and lock those that can change. A non-network
            # error is protocol-breaking; it is raised *after* the locked
            # set is recorded so the finally-block releases every lock
            # the batch acquired.
            mark_outcomes = self._batch(
                all_targets,
                lambda t: CallSpec(
                    t.user, t.service, t.mark_method, (t.entity, txn_id, *t.mark_args)
                ),
                deadline=deadline,
            )
            protocol_error: Exception | None = None
            outcome_iter = iter(mark_outcomes)
            locked_by_group: list[list[Participant]] = []
            for targets, _constraint in groups:
                group_locked: list[Participant] = []
                for target in targets:
                    outcome = next(outcome_iter)
                    trace.record(target.user, "mark", entity=target.entity, txn=txn_id)
                    if not outcome.ok and not isinstance(outcome.error, NetworkError):
                        protocol_error = protocol_error or outcome.error
                    if not outcome.ok and isinstance(outcome.error, NetworkError):
                        # Unknown outcome: the mark may have locked the
                        # target with only the reply lost. Queue it for a
                        # compensating unmark in the unlock batch (unmark
                        # is owner-checked — a no-op if no lock landed).
                        unknown_marks.append(target)
                    if outcome.ok and bool(outcome.value):
                        trace.record(target.user, "lock", entity=target.entity, txn=txn_id)
                        group_locked.append(target)
                        locked.append(target)
                        result.locked.append(target.user)
                    else:
                        trace.record(target.user, "refuse", entity=target.entity, txn=txn_id)
                        result.refused.append(target.user)
                locked_by_group.append(group_locked)
            self._maybe_crash("after-mark", txn_id)
            if protocol_error is not None:
                raise protocol_error

            # Step 3: every group's constraint must hold.
            for (targets, constraint), group_locked in zip(groups, locked_by_group):
                if not constraint.satisfied(len(group_locked), len(targets)):
                    result.failure_reason = (
                        f"constraint {constraint.describe()} not met: "
                        f"{len(group_locked)}/{len(targets)} lockable"
                    )
                    trace.record(initiator.user, "abort", reason=result.failure_reason)
                    return result

            # Budget gate: aborting is only safe *before* the durable
            # commit decision. A mark phase that burned the whole budget
            # (gray participants, retry storms) aborts here rather than
            # carrying exhausted deadlines into the commit waves.
            if deadline is not None and clock.now() >= deadline:
                result.failure_reason = (
                    f"deadline budget exhausted before decide "
                    f"({clock.now() - t0:.3f}s of {self.lease_budget:.3f}s)"
                )
                trace.record(initiator.user, "abort", reason="budget-exhausted")
                return result

            # DECIDE(commit) goes durable *before* the first change leg:
            # once any participant may have applied the change, a restarted
            # coordinator (and any participant's txn_status query) must
            # answer commit — never split the decision.
            self.intents.decide(
                txn_id, "commit", {"locked": [_ref(t) for t in locked]}
            )
            self._maybe_crash("after-decide", txn_id)

            # Post-decide waves get a fresh grace window (not the leftover
            # mark-phase budget): the commit point is already durable, so
            # starving the change legs would only manufacture split
            # outcomes for recovery to mop up.
            post_deadline = (
                clock.now() + 0.2 * self.lease_limit if deadline is not None else None
            )

            # Step 4: Change A; change the locked entities (one batch).
            trace.record(initiator.user, "change", entity=initiator.entity, txn=txn_id)
            self._change(initiator, txn_id, change, post_deadline)
            result.changed.append(initiator.user)
            self._maybe_crash("after-partial-change", txn_id)
            for target in locked:
                trace.record(target.user, "change", entity=target.entity, txn=txn_id)
            change_outcomes = self._batch(
                locked,
                lambda t: CallSpec(
                    t.user, t.service, t.change_method, (t.entity, txn_id, change)
                ),
                deadline=post_deadline,
            )
            change_error: Exception | None = None
            for target, outcome in zip(locked, change_outcomes):
                if outcome.ok:
                    result.changed.append(target.user)
                else:
                    change_error = change_error or outcome.error
            if change_error is not None:
                raise change_error
            result.ok = True
            self.committed += 1
            return result
        except CoordinatorCrashed:
            # Simulated coordinator death: skip the epilogue entirely —
            # no unlocks, no END record. Recovery (or the participants'
            # lease-based termination protocol) resolves the leftovers.
            crashed = True
            raise
        finally:
            self._depth -= 1
            self._active.discard(txn_id)
            if not crashed:
                # Step 5: Unlock B and C; Unlock A — on every path, one
                # batch. Unlock is best effort: a participant that
                # vanished after locking loses its lock table when it
                # restarts (``LockManager.clear``), and one that stayed up
                # terminates the stale mark by lease, so per-leg failures
                # are ignored. Targets
                # whose *mark* leg failed with a network error ride along:
                # their lock may have landed with only the reply lost, and
                # unmark is owner-checked so the compensation is a no-op
                # where it did not. Under a budget the epilogue gets its
                # own short grace window — an unmark a gray participant
                # cannot absorb in time is abandoned to its lease-based
                # termination protocol rather than held open.
                ep_deadline = (
                    clock.now() + 0.2 * self.lease_limit if deadline is not None else None
                )
                for target in locked:
                    trace.record(target.user, "unlock", entity=target.entity, txn=txn_id)
                if locked or unknown_marks:
                    self._batch(
                        locked + unknown_marks,
                        lambda t: CallSpec(
                            t.user, t.service, t.unmark_method, (t.entity, txn_id)
                        ),
                        deadline=ep_deadline,
                    )
                # The remote batch may have spent the whole grace against
                # a stalled participant; the initiator's own unmark is
                # loopback-cheap and must never be starved by it — it
                # gets a fresh sliver (the lease audit still bounds the
                # total).
                ep_deadline = (
                    clock.now() + 0.2 * self.lease_limit if deadline is not None else None
                )
                if initiator_marked:
                    trace.record(
                        initiator.user, "unlock", entity=initiator.entity, txn=txn_id
                    )
                    self._unmark(initiator, txn_id, ep_deadline)
                elif initiator_unknown:
                    # The initiator's mark leg failed with a network error
                    # after retries: it may have applied remotely with only
                    # the reply lost. Compensate with a best-effort unmark
                    # (owner-checked and idempotent, so harmless if the
                    # mark never landed).
                    self._unmark(initiator, txn_id, ep_deadline)
                # END closes the durable record: recovery skips this txn.
                self.intents.end(txn_id, "commit" if result.ok else "abort")
                # Lease audit: a completed negotiation that held its marks
                # longer than the participants' lease broke the contract
                # the termination protocol is built on. (Crashed
                # coordinators are exempt — their leftovers are resolved
                # by recovery/lease expiry by design.)
                held = clock.now() - t0
                if held > self.lease_limit:
                    self.lease_overruns.append(
                        (txn_id, round(held, 3), self.lease_limit)
                    )
                    if self.metrics is not None:
                        self.metrics.inc(self.metrics_node, "txn.lease_overrun")
            span.set(
                ok=result.ok,
                locked=len(result.locked),
                refused=len(result.refused),
                changed=len(result.changed),
            )
            trace.end_span(span, error="CoordinatorCrashed" if crashed else None)

    # -- crash recovery ----------------------------------------------------------

    def recover(self) -> dict[str, int]:
        """Resolve every in-flight transaction in the durable intent log.

        Run by ``SyDWorld.restart`` after the node comes back up.
        Presumed-abort termination: a transaction with a durable
        ``DECIDE(commit)`` *rolls forward* — re-send ``change`` to the
        recorded locked set (participants still hold their marks, and
        re-applying the same change is idempotent at the store), then
        unlock everywhere; any other in-flight transaction *rolls back* —
        unlock everywhere, decision recorded as abort. Every remote leg
        is best-effort: unreachable participants terminate on their own
        via the lease/txn_status protocol.

        Returns ``{"commits": n, "aborts": m}`` resolved counts.
        """
        self.intents.restart()
        counts = {"commits": 0, "aborts": 0}
        pending = [
            (txn_id, entry)
            for txn_id, entry in self.intents.in_flight()
            # Still on the execute stack: a restart pumped from inside
            # a retry backoff must not race the live frame.
            if txn_id not in self._active
        ]
        with self.tracer.span(
            "txn.recover", self.engine.node_id, pending=len(pending)
        ):
            for txn_id, entry in pending:
                self._recover_one(txn_id, entry, counts)
        return counts

    def _recover_one(self, txn_id: str, entry: dict[str, Any], counts: dict[str, int]) -> None:
        """Resolve one in-flight transaction (roll forward or back).

        The replay span carries ``origin_trace`` — the trace id the
        original negotiation wrote into its durable BEGIN — linking the
        post-crash resolution back to the execution that started it.
        """
        begin = entry["begin"] or {}
        initiator_ref = begin.get("initiator")
        target_refs = list(begin.get("targets") or ())
        decision = entry["decision"]
        rolled_forward = decision is not None and decision[0] == "commit"
        with self.tracer.span(
            "txn.replay",
            self.engine.node_id,
            txn=txn_id,
            origin_trace=begin.get("trace_id") or "?",
            resolution="commit" if rolled_forward else "abort",
        ):
            if rolled_forward:
                locked_refs = list((decision[1] or {}).get("locked") or ())
                change = begin.get("change")
                # The restart wiped the coordinator's own (volatile) lock
                # table, so the initiator's mark is gone while the targets
                # still hold theirs. Re-mark the initiator only: on the
                # after-decide path the entity is still free and the mark
                # re-locks it for the change leg; on the
                # after-partial-change path the change already applied,
                # the mark refuses, and the re-sent change is a tolerated
                # no-op. Re-marking a *target* would double-acquire its
                # reentrant lock and strand it after the single unmark.
                if initiator_ref is not None:
                    self._recover_calls(
                        [
                            CallSpec(
                                initiator_ref["user"],
                                initiator_ref["service"],
                                initiator_ref.get("mark_method", "mark"),
                                (initiator_ref["entity"], txn_id),
                            )
                        ]
                    )
                # Change A; change the locked entities — re-applying a
                # change the initiator already ran is idempotent at the
                # store, so the wave always leads with the initiator.
                change_refs = (
                    [initiator_ref] if initiator_ref is not None else []
                ) + locked_refs
                self._recover_calls(
                    [
                        CallSpec(
                            r["user"],
                            r["service"],
                            r["change_method"],
                            (r["entity"], txn_id, change),
                        )
                        for r in change_refs
                    ]
                )
                self._recover_unmarks(target_refs, initiator_ref, txn_id)
                self.intents.end(txn_id, "commit")
                self.committed += 1
                self.recovered_commits += 1
                counts["commits"] += 1
            else:
                self._recover_unmarks(target_refs, initiator_ref, txn_id)
                self.intents.end(txn_id, "abort")
                self.recovered_aborts += 1
                counts["aborts"] += 1

    def _recover_unmarks(self, target_refs, initiator_ref, txn_id: str) -> None:
        """One best-effort unmark batch at every possible mark holder."""
        refs = list(target_refs)
        if initiator_ref is not None:
            refs.append(initiator_ref)
        self._recover_calls(
            [
                CallSpec(
                    r["user"], r["service"], r["unmark_method"], (r["entity"], txn_id)
                )
                for r in refs
            ]
        )

    def _recover_calls(self, specs: list[CallSpec]) -> list[CallOutcome]:
        """Scatter-gather a recovery wave; per-leg failures are tolerated
        (a leg that cannot land now is terminated by the participant's own
        lease protocol)."""
        if not specs:
            return []
        return self.engine.execute_calls(specs)

    # -- protocol verbs over the engine ------------------------------------------

    def _batch(
        self,
        participants: list[Participant],
        spec,
        deadline: float | None = None,
    ) -> list[CallOutcome]:
        """One scatter-gather wave of the same verb at every participant."""
        return self.engine.execute_calls(
            [spec(p) for p in participants], deadline=deadline
        )

    def _mark(
        self, p: Participant, txn_id: str, deadline: float | None = None
    ) -> tuple[bool, bool]:
        """Mark+lock one participant.

        Returns ``(locked, unknown)``: a refusal is a definite no; a
        network error after retries is *unknown* — the verb may have
        applied remotely with only the reply lost, so the caller owes a
        compensating unmark.
        """
        try:
            return (
                bool(
                    self.engine.execute(
                        p.user,
                        p.service,
                        p.mark_method,
                        p.entity,
                        txn_id,
                        *p.mark_args,
                        deadline=deadline,
                    )
                ),
                False,
            )
        except NetworkError:
            return False, True

    def _change(
        self, p: Participant, txn_id: str, change: Any, deadline: float | None = None
    ) -> None:
        self.engine.execute(
            p.user, p.service, p.change_method, p.entity, txn_id, change,
            deadline=deadline,
        )

    def _unmark(
        self, p: Participant, txn_id: str, deadline: float | None = None
    ) -> None:
        try:
            self.engine.execute(
                p.user, p.service, p.unmark_method, p.entity, txn_id,
                deadline=deadline,
            )
        except ReproError:
            # Unlock is best effort: a restart clears a vanished
            # participant's lock table (``LockManager.clear``), and the
            # lease sweep terminates a mark left at a live one.
            pass
