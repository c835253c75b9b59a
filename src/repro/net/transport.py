"""Simulated synchronous transport.

This replaces the paper's TCP-socket layer. Design (see DESIGN.md §5.1):
distributed interaction is *synchronous simulated RPC* — ``rpc()``
advances the shared virtual clock by the modeled request latency, invokes
the destination's registered handler inline, advances the clock again for
the reply, and returns the handler's result. Protocol state machines are
identical to an asynchronous implementation, but execution is
deterministic and message/latency accounting is exact.

Group operations use :meth:`Transport.rpc_many` — the scatter-gather
path modeling the prototype's concurrent Java-RMI invocations: all legs
of a batch are considered in flight simultaneously, so the shared clock
advances by the *max* request+reply delay across the batch while every
leg's delay is still individually charged to :class:`NetworkStats`.
Per-leg failures come back as :class:`RpcOutcome` records instead of
aborting the whole batch.

One code path: every traffic method is built on a single per-leg core,
:meth:`Transport._leg` — deliver the request, give up at the deadline,
run the handler, marshal its error, account the reply and carve out the
stall. ``rpc`` is one leg plus a clock advance, ``rpc_many`` is N legs
plus one max advance, ``rpc_hedged`` is a two-leg race and ``send`` is a
leg without a reply. With an inert fault plan the per-message fault
probes are skipped (see :attr:`FaultPlan.active`); with tracing off no
span or trace-context work is done. A traced ``rpc:*`` span is a part of
a leg record (:class:`repro.util.trace.LegRecord`), whose attribute
dict the traffic methods fill in place.

Failure semantics (``rpc``; per leg for ``rpc_many``):

* destination down / partitioned → :class:`UnreachableError`
* a fault drop-rule matches        → :class:`MessageDropped`
* the remote handler raises        → re-raised locally as the same typed
  exception when it is a library error (via ``ERRORS_BY_NAME``), else as
  :class:`RemoteError`. This mirrors how the prototype surfaced remote
  Java exceptions to the caller.
* the *reply* leg is lost           → :class:`UnreachableError` /
  :class:`MessageDropped` at the caller **after the handler executed and
  its side effects persisted**. This is the at-least-once hazard; the
  receiver-side dedup layer (:mod:`repro.net.dedup`) makes the retry
  safe.

Exactly-once support: the transport stamps every RPC request with an
idempotency key ``(sender_id, incarnation, seq)`` — ``seq`` counts per
(sender, destination) pair so each receiver observes a per-sender
sequence without cross-receiver gaps. Retrying callers allocate the key
once (:meth:`next_dedup` / :meth:`stamp_calls`) and pass it with every
attempt. :meth:`bump_incarnation` fences a restarted sender: its old
keys become stale and its sequence numbering restarts.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.net.address import NodeAddress
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.net.stats import NetworkStats
from repro.util.clock import VirtualClock
from repro.util.errors import (
    ERRORS_BY_NAME,
    DeadlineExceeded,
    MessageDropped,
    NetworkError,
    RemoteError,
    ReproError,
    UnreachableError,
)
from repro.util.idgen import IdGenerator
from repro.util.trace import Tracer, maybe_span

#: A node-side dispatcher: receives (message) and returns a payload dict.
Handler = Callable[[Message], dict[str, Any]]


@dataclass(frozen=True, slots=True)
class RpcCall:
    """One leg of a scatter-gather batch (see :meth:`Transport.rpc_many`).

    ``dedup`` carries a pre-allocated idempotency key; retry wrappers
    stamp legs once (:meth:`Transport.stamp_calls`) so a re-sent leg
    reuses the same key. Unstamped legs are stamped at send time.
    """

    dst: str
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    dedup: tuple[str, int, int] | None = None


@dataclass
class RpcOutcome:
    """Per-leg result of a scatter-gather batch.

    Exactly one of ``value`` / ``error`` is set. ``delay`` is the
    request+reply network delay attributed to this leg (0.0 when the leg
    failed before delivery — unreachable destination or fault drop).
    """

    dst: str
    ok: bool
    value: dict[str, Any] | None = None
    error: Exception | None = None
    delay: float = 0.0


#: What one request/reply leg produced (see :meth:`Transport._leg`):
#: ``(outcome, value, error, request, reply, wait, stall)``. ``outcome`` is
#: ``"ok"``, ``"remote_error"`` (the handler raised; ``error`` is the
#: marshalled exception, or the loss error if its reply was lost too),
#: ``"reply_lost"`` (the handler succeeded but the reply never arrived),
#: ``"deadline"`` (the caller stopped waiting) or ``"undeliverable"`` (the
#: request never arrived). ``value`` is the handler's result on ``"ok"``.
#: ``request`` and ``reply`` are the wire delays of the two messages
#: (``reply`` is None when no reply arrived), ``wait`` is how long the
#: caller waited for the leg, capped at the deadline, and ``stall`` is the
#: stalled-destination share of the reply delay. A plain tuple: one is
#: built per leg on the hottest path.
_Leg = tuple[str, "dict[str, Any] | None", "Exception | None", float, "float | None", float, float]


class Transport:
    """The one shared network object of a simulated world.

    Nodes register a handler under their address; peers call
    :meth:`rpc` / :meth:`send`. The transport owns clock advancement for
    network delays and all traffic accounting.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        latency: LatencyModel | None = None,
        faults: FaultPlan | None = None,
        stats: NetworkStats | None = None,
        stamp_dedup: bool = True,
        tracer: Tracer | None = None,
    ):
        self.clock = clock or VirtualClock()
        self.latency = latency or ConstantLatency(0.001)
        self.faults = faults or FaultPlan()
        self.stats = stats or NetworkStats()
        #: stamp RPC requests with idempotency keys (off = PR 2 wire format)
        self.stamp_dedup = stamp_dedup
        #: causal-trace recorder; when set (and enabled), RPC/send request
        #: legs are stamped with ``(trace_id, parent_span_id)`` headers and
        #: each call gets a span (see repro.obs)
        self.tracer = tracer
        self._ids = IdGenerator()
        self._handlers: dict[str, Handler] = {}
        self._addresses: dict[str, NodeAddress] = {}
        #: per-sender incarnation epoch (bumped on restart; defaults to 1)
        self._incarnations: dict[str, int] = {}
        #: per-(sender, destination) sequence counters
        self._seqs: dict[tuple[str, str], int] = {}
        #: observers called with every successfully delivered message leg
        #: (used by repro.tools.sequence to draw interaction diagrams)
        self.taps: list[Callable[[Message], None]] = []
        #: observers called with every *lost reply* message (handler ran,
        #: response never reached the requester) — chaos uses this to mark
        #: both endpoints for post-episode reconciliation
        self.reply_loss_taps: list[Callable[[Message], None]] = []
        #: optional phi-accrual detector (repro.net.health): when set, the
        #: transport piggybacks RPC outcomes into it — every successful
        #: round trip is a sign of life with a network-only RTT sample,
        #: every request-leg failure and deadline overrun is evidence
        #: against the destination.
        self.health = None

    # -- registration ------------------------------------------------------

    def register(self, address: NodeAddress, handler: Handler) -> None:
        """Attach a node to the network (replaces any previous handler)."""
        self._addresses[address.node_id] = address
        self._handlers[address.node_id] = handler

    def unregister(self, node_id: str) -> None:
        """Detach a node (subsequent traffic to it is unreachable)."""
        self._handlers.pop(node_id, None)
        self._addresses.pop(node_id, None)

    def address_of(self, node_id: str) -> NodeAddress:
        """Address record for a registered node."""
        if node_id not in self._addresses:
            raise UnreachableError(f"unknown node {node_id!r}")
        return self._addresses[node_id]

    def known_nodes(self) -> list[str]:
        """Ids of all registered nodes."""
        return sorted(self._handlers)

    # -- idempotency keys --------------------------------------------------

    def incarnation(self, node_id: str) -> int:
        """Current incarnation epoch of a sender (1 until first restart)."""
        return self._incarnations.get(node_id, 1)

    def bump_incarnation(self, node_id: str) -> int:
        """Fence a restarted sender: new epoch, sequence numbering restarts.

        Pre-restart keys become *stale* at every receiver that has seen
        the new epoch, so a delayed duplicate of a pre-crash request can
        never execute against post-restart state — and post-restart seq
        reuse (1, 2, ...) is never mistaken for a duplicate of the old
        sequence.
        """
        self._incarnations[node_id] = self.incarnation(node_id) + 1
        for pair in [p for p in self._seqs if p[0] == node_id]:
            del self._seqs[pair]
        return self._incarnations[node_id]

    def next_dedup(self, src: str, dst: str) -> tuple[str, int, int] | None:
        """Allocate the next idempotency key for a ``src → dst`` request.

        Retrying callers allocate the key *above* their retry loop and
        pass it to every attempt. Returns None with stamping disabled
        (attempts then go out unstamped, exactly like PR 2).
        """
        if not self.stamp_dedup:
            return None
        pair = (src, dst)
        seq = self._seqs.get(pair, 0) + 1
        self._seqs[pair] = seq
        return (src, self._incarnations.get(src, 1), seq)

    def stamp_calls(
        self, src: str, calls: Sequence[RpcCall | tuple[str, str, dict[str, Any]]]
    ) -> list[RpcCall]:
        """Pre-stamp a batch of legs with idempotency keys.

        Used by ``rpc_many_with_retry`` so a re-sent leg carries the same
        key as the original attempt. Already-stamped legs are kept as-is;
        every other leg is built once, with its key (``dataclasses.replace``
        would re-inspect the fields on every leg).
        """
        if not self.stamp_dedup:
            return [c if isinstance(c, RpcCall) else RpcCall(*c) for c in calls]
        legs = []
        for c in calls:
            if isinstance(c, RpcCall):
                if c.dedup is not None:
                    legs.append(c)
                    continue
                dst, kind, payload = c.dst, c.kind, c.payload
            else:
                dst, kind, payload = c
            legs.append(RpcCall(dst, kind, payload, self.next_dedup(src, dst)))
        return legs

    # -- trace stamping ----------------------------------------------------

    def _trace_ctx(self) -> tuple[str, str] | None:
        """Current ``(trace_id, span_id)`` to stamp on a request leg."""
        if self.tracer is None or not self.tracer.enabled:
            return None
        return self.tracer.current_context()

    # -- shared delivery internals ----------------------------------------

    def _undeliverable(self, msg: Message) -> Exception | None:
        """Why ``msg`` cannot be delivered, or None if it can.

        The one reachability/drop sequence shared by first deliveries
        (:meth:`_deliver`, which raises and counts) and redeliveries
        (:meth:`redeliver`, which silently gives up).
        """
        if msg.dst not in self._handlers:
            return UnreachableError(f"node {msg.dst!r} is not attached to the network")
        faults = self.faults
        if not faults.active:
            return None  # an inert plan reaches every node and drops nothing
        if not faults.reachable(msg.src, msg.dst):
            return UnreachableError(f"node {msg.dst!r} is unreachable from {msg.src!r}")
        if faults.should_drop(msg):
            return MessageDropped(f"message {msg.msg_id} ({msg.kind}) dropped by fault rule")
        return None

    def _account_delivery(self, msg: Message, advance: bool) -> float:
        """Charge one deliverable leg: delay, clock, stats, taps."""
        delay = self.latency.delay(self._addresses[msg.src], self._addresses[msg.dst], msg)
        if self.faults.active:
            # Gray inflation: slow-node / degraded-link rules add seeded
            # extra delay on top of the latency model.
            delay += self.faults.gray_delay(msg.src, msg.dst)
        if advance:
            self.clock.advance(delay)
        self._count_leg(msg, delay)
        for tap in self.taps:
            tap(msg)
        return delay

    def _count_leg(self, msg: Message, delay: float) -> None:
        """Count one delivered leg, request or reply, in the traffic stats."""
        stats = self.stats
        add = stats.add
        add("messages")
        if msg.is_reply:
            add("replies")
        add("bytes", msg.size_bytes)
        add("latency", delay)
        stats.add_kind(msg.kind)

    def _deliver(self, msg: Message, advance: bool = True) -> float:
        """Account one message leg (or raise); returns its delay.

        With ``advance`` the clock moves before the leg is accounted
        (taps observe the arrival time); otherwise the caller moves it.
        """
        if msg.src not in self._addresses:
            raise UnreachableError(f"source node {msg.src!r} not attached")
        failure = self._undeliverable(msg)
        if failure is not None:
            dropped = isinstance(failure, MessageDropped)
            self.stats.add("dropped" if dropped else "unreachable")
            raise failure
        return self._account_delivery(msg, advance)

    # -- the leg core ------------------------------------------------------

    def _leg(
        self,
        msg: Message,
        sequential: bool,
        deadline: float | None = None,
        start: float = 0.0,
        error_overrun_fails: bool = True,
        reply: bool = True,
    ) -> _Leg:
        """Carry one request (and its reply); never raises for leg failures.

        The single primitive under every traffic method: deliver the
        request or fail it, give up on it at ``deadline`` before the
        handler runs, invoke the handler, marshal its error (typed
        library errors keep their type, anything else becomes
        :class:`RemoteError`), fire a fault-rule duplicate, account the
        reply (a lost reply takes precedence over the remote error) with
        its stall carved out, and feed the health detector.

        ``sequential`` legs (``rpc``, ``send``) move the shared clock as
        each message lands: the handler observes the request's arrival
        time, and the deadline is checked against the live clock, so
        nested traffic the handler causes spends the same budget.
        Concurrent legs (``rpc_many``, ``rpc_hedged``) leave the clock to
        their caller: the handler runs at the call's start time and the
        leg's own request+reply delay is checked against the budget
        ``deadline - start``. Health hears of every failed request and
        deadline overrun here, but of a concurrent leg's success only
        from the caller that settles the clock.

        ``error_overrun_fails``: a remote error whose reply lands past
        the deadline counts as a deadline failure (outcome
        ``"deadline"``, evidence for health); otherwise it stays a
        ``"remote_error"`` leg carrying :class:`DeadlineExceeded`.

        ``reply=False`` is a one-way send: no duplicate, no reply leg, no
        health evidence.
        """
        health = self.health if reply else None
        dst = msg.dst
        immediate = sequential and deadline is None
        try:
            request = self._deliver(msg, immediate)
        except (UnreachableError, MessageDropped) as exc:
            if health is not None:
                health.record_failure(dst)
            return ("undeliverable", None, exc, 0.0, None, 0.0, 0.0)
        remaining = 0.0
        if deadline is not None:
            remaining = max(0.0, deadline - start)
            if (start + request > deadline) if sequential else (request > remaining):
                # The caller stops waiting while the request is still in
                # flight: the handler never runs.
                if sequential:
                    self.clock.advance(remaining)
                if health is not None:
                    health.record_failure(dst)
                late = DeadlineExceeded(
                    remaining, remaining, detail=f"request leg rpc:{msg.kind} to {dst}"
                )
                return ("deadline", None, late, request, None, remaining, 0.0)
            if sequential:
                self.clock.advance(request)
        error: Exception | None = None
        try:
            value = self._handlers[dst](msg)
        except ReproError as exc:
            error = type(exc)(*exc.args) if type(exc).__name__ in ERRORS_BY_NAME else exc
            value, body = None, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - marshal arbitrary remote failure
            error = RemoteError(type(exc).__name__, str(exc))
            error.__cause__ = exc
            value, body = None, {"error": str(exc)}
        else:
            if value is None:
                value = {}
            body = value
        outcome = "ok" if error is None else "remote_error"
        if not reply:
            return (outcome, value, error, request, None, request, 0.0)
        if error is None:
            self._maybe_duplicate(msg)
        try:
            back, stall = self._account_reply(msg, body, immediate)
        except NetworkError as loss:
            lost = "reply_lost" if error is None else "remote_error"
            return (lost, None, loss, request, None, request, 0.0)
        wait = request + back
        if deadline is not None:
            if sequential:
                now = self.clock.now()
                overran = now + back > deadline
                if not overran:
                    self.clock.advance(back)
                elif deadline > now:
                    self.clock.advance(deadline - now)
            else:
                overran = wait > remaining
            if overran:
                spent = self.clock.now() - start if sequential else remaining
                late = DeadlineExceeded(
                    spent, remaining, detail=f"reply leg rpc:{msg.kind} from {dst}"
                )
                if error is not None and not error_overrun_fails:
                    return (outcome, None, late, request, back, remaining, stall)
                if health is not None:
                    health.record_failure(dst)
                return ("deadline", None, late, request, back, remaining, stall)
        if error is not None:
            return (outcome, None, error, request, back, wait, stall)
        if sequential and health is not None:
            health.record_success(dst, wait)
        return (outcome, value, None, request, back, wait, stall)

    # -- traffic methods ---------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: dict[str, Any]) -> None:
        """One-way message: deliver to the destination handler, ignore result.

        A remote handler failure is a *remote* failure: it is counted
        (``send_failures``) and swallowed, never raised into the sender's
        stack — a fire-and-forget sender has no reply leg to learn it
        from. Transport-level failures before delivery (unreachable
        destination, fault drop) still raise, since the message
        observably never left. Sends are not dedup-stamped: they carry no
        reply to replay and their seqs would open permanent watermark
        gaps at the receiver.
        """
        with maybe_span(self.tracer, f"send:{kind}", src, dst=dst) as span:
            msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                dst,
                kind,
                payload,
                trace=self._trace_ctx(),
            )
            outcome, _, error, *_ = self._leg(msg, True, reply=False)
            if outcome == "undeliverable":
                raise error  # type: ignore[misc]
            span.set(bytes=msg.size_bytes)
            if error is not None:
                self.stats.add("send_failures")
                span.set(outcome="remote_error")
            else:
                span.set(outcome="ok")

    def rpc(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict[str, Any],
        dedup: tuple[str, int, int] | None = None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Request/response round trip; returns the handler's payload.

        Remote library exceptions come back as their own types; anything
        else as :class:`RemoteError`. If the *reply* leg is lost the
        transport raises the loss error (:class:`UnreachableError` /
        :class:`MessageDropped`) instead — the caller cannot distinguish
        a lost request from a lost reply, which is exactly the ambiguity
        the dedup layer resolves on retry.

        ``dedup`` carries a pre-allocated idempotency key (retrying
        callers re-use one key across attempts); without it the request
        is stamped with a fresh key automatically.

        ``deadline`` is an absolute simulated time past which the caller
        stops waiting: the clock never advances beyond it on this call,
        and :class:`DeadlineExceeded` is raised instead of the result.
        The wire traffic is still accounted at its real delay — the
        network was busy whether or not anyone kept listening. A request
        leg that overruns never executes the handler (the caller gave up
        while it was in flight); a reply leg that overruns raises *after*
        the handler's side effects landed — the usual at-least-once
        hazard, resolved by the dedup layer on retry.
        """
        if dedup is None:
            dedup = self.next_dedup(src, dst)
        tracer = self.tracer
        attrs: dict[str, Any] = {"dst": dst}
        traced = tracer is not None and tracer.enabled and tracer.open_rpc(src, attrs, kind)
        status = None
        try:
            start = self.clock.now()
            if deadline is not None and start >= deadline:
                attrs["outcome"] = "deadline"
                raise DeadlineExceeded(0.0, 0.0, detail=f"rpc:{kind} to {dst} not sent")
            msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                dst,
                kind,
                payload,
                dedup=dedup,
                trace=tracer.current_context() if traced else None,
                deadline=deadline,
            )
            outcome, value, error, _, _, _, stall = self._leg(msg, True, deadline, start)
            if outcome == "undeliverable":
                raise error  # type: ignore[misc]
            attrs["bytes"] = msg.size_bytes
            if stall:
                attrs["stall"] = round(stall, 9)
            if outcome == "ok":
                attrs["outcome"] = "ok"
                attrs["delay"] = round(self.clock.now() - start, 9)
                return value  # type: ignore[return-value]
            if outcome != "reply_lost":
                attrs["outcome"] = outcome
            raise error  # type: ignore[misc]
        except BaseException as exc:
            status = exc.__class__.__name__
            raise
        finally:
            if traced:
                tracer.close_rpc(status)

    def rpc_hedged(
        self,
        src: str,
        primary: str,
        backup: str,
        kind: str,
        payload: dict[str, Any],
        hedge_delay: float,
    ) -> dict[str, Any]:
        """First-wins hedged round trip for idempotent reads.

        The request goes to ``primary`` immediately; if its round trip
        has not completed after ``hedge_delay`` the same request is
        launched at ``backup`` and whichever reply arrives first decides
        (ties favor the primary). The caller's clock advances only to
        the winner's arrival — the loser's reply lands later and is
        discarded, exactly the tail-latency cut hedging buys — while
        stats charge both legs' real traffic.

        Both handlers may execute (the hedge is for *idempotent* reads;
        each leg carries its own fresh idempotency key so the receivers'
        dedup tables never conflate them). A primary failure known
        before the hedge timer (unreachable, drop, typed remote error)
        is raised immediately — hedging cuts latency tails, it is not an
        error-failover mechanism; the caller's replica failover handles
        those. A primary whose *reply* is lost never completes, so the
        hedge always fires for it.
        """
        health = self.health
        tracer = self.tracer
        attrs: dict[str, Any] = {"dst": primary, "hedge": backup}
        traced = tracer is not None and tracer.enabled and tracer.open_rpc(src, attrs, kind)
        status = None
        try:
            start = self.clock.now()
            msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                primary,
                kind,
                payload,
                dedup=self.next_dedup(src, primary),
                trace=tracer.current_context() if traced else None,
            )
            p_outcome, p_result, p_error, _, p_reply, p_wait, p_stall = self._leg(msg, False)
            if p_outcome == "undeliverable":
                attrs["outcome"] = "undeliverable"
                raise p_error  # type: ignore[misc]
            attrs["bytes"] = msg.size_bytes
            # None = the reply was lost: the primary never completes.
            p_total = None if p_reply is None else p_wait
            if p_total is not None and p_total <= hedge_delay:
                # The primary answered (or errored) before the hedge
                # timer: no second leg is ever sent.
                self.clock.advance(p_total)
                if p_outcome != "ok":
                    attrs["outcome"] = "remote_error"
                    raise p_error  # type: ignore[misc]
                if health is not None:
                    health.record_success(primary, p_total)
                if p_stall:
                    attrs["stall"] = round(p_stall, 9)
                attrs["outcome"] = "ok"
                attrs["delay"] = round(p_total, 9)
                return p_result  # type: ignore[return-value]

            # Hedge fires: the same request at the backup owner, its
            # round trip starting hedge_delay after the primary's.
            self.stats.add("hedges")
            b_msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                backup,
                kind,
                payload,
                dedup=self.next_dedup(src, backup),
                trace=tracer.current_context() if traced else None,
            )
            b_outcome, b_result, _, b_request, b_reply, _, b_stall = self._leg(b_msg, False)
            if b_outcome == "undeliverable":
                b_total: float | None = hedge_delay
            elif b_reply is None:
                b_total = None
            else:
                b_total = hedge_delay + b_request + b_reply

            # First successful reply wins; ties favor the primary.
            winners = []
            if p_outcome == "ok":
                winners.append((p_total, 0))
            if b_outcome == "ok":
                winners.append((b_total, 1))
            if winners:
                total, which = min(winners)  # type: ignore[type-var]
                self.clock.advance(total)
                if health is not None:
                    # Both replies eventually arrive; both are RTT samples.
                    if p_outcome == "ok":
                        health.record_success(primary, p_total)
                    if b_outcome == "ok":
                        rtt = b_total - hedge_delay  # type: ignore[operator]
                        health.record_success(backup, rtt)
                # The winner's reply is the one the caller's elapsed time
                # followed, so its stall is the span's stall; the loser's
                # reply was discarded (its stall cost nobody anything).
                win_stall = b_stall if which == 1 else p_stall
                if win_stall:
                    attrs["stall"] = round(min(win_stall, total), 9)
                if which == 1:
                    self.stats.add("hedge_wins")
                    attrs["winner"] = "backup"
                    attrs["outcome"] = "hedge_win"
                    attrs["delay"] = round(total, 9)
                    return b_result  # type: ignore[return-value]
                attrs["winner"] = "primary"
                attrs["outcome"] = "ok"
                attrs["delay"] = round(total, 9)
                return p_result  # type: ignore[return-value]

            # Neither leg produced a result: the caller learns of the
            # failure at the later of the two known completion times.
            known = [t for t in (p_total, b_total) if t is not None]
            self.clock.advance(max(known) if known else hedge_delay)
            attrs["outcome"] = "failed"
            attrs["delay"] = round(self.clock.now() - start, 9)
            raise p_error  # type: ignore[misc]
        except BaseException as exc:
            status = exc.__class__.__name__
            raise
        finally:
            if traced:
                tracer.close_rpc(status)

    def rpc_many(
        self,
        src: str,
        calls: Sequence[RpcCall | tuple[str, str, dict[str, Any]]],
        deadline: float | None = None,
    ) -> list[RpcOutcome]:
        """Scatter-gather: issue every call as a concurrent in-flight leg.

        Models the prototype's concurrent RMI invocations: each leg's
        request and reply delays are charged to :class:`NetworkStats`
        individually (message counts and total network busy-time are
        identical to issuing the calls sequentially), but the shared
        clock advances only once, by the **maximum** request+reply delay
        across the batch — a group call costs ~one round trip of virtual
        time instead of the sum.

        Per-leg failures (unreachable destination, fault drop, remote
        handler error, lost reply) are captured as failed
        :class:`RpcOutcome` records rather than raised, so one dead
        device never aborts the batch. Legs that fail before delivery
        contribute zero delay; the clock advance equals the max over
        *attempted* legs. Handlers execute inline in call order (nested
        traffic they cause is accounted as usual), keeping runs
        deterministic.

        Only an unattached *source* raises, since no leg could be sent.

        With a ``deadline``, legs whose request+reply delay would land
        past it come back as failed outcomes carrying
        :class:`DeadlineExceeded`, their clock contribution capped at
        the remaining budget (stats still charge real delays). A leg
        whose *request* overruns never executes its handler; a leg
        whose *reply* overruns already did.
        """
        legs = [c if isinstance(c, RpcCall) else RpcCall(*c) for c in calls]
        if not legs:
            return []
        if src not in self._addresses:
            raise UnreachableError(f"source node {src!r} not attached")
        health = self.health
        outcomes: list[RpcOutcome] = []
        max_delay = 0.0
        #: stall component of the leg that currently owns ``max_delay`` —
        #: the batch's clock advance is that leg's round trip, so its
        #: stall is the batch tail's stall (stamped on the batch span).
        batch_stall = 0.0
        tracer = self.tracer
        with maybe_span(tracer, "net.batch", src, legs=len(legs)) as batch:
            start = self.clock.now()
            for call in legs:
                dedup = call.dedup if call.dedup is not None else self.next_dedup(src, call.dst)
                attrs: dict[str, Any] = {"dst": call.dst}
                traced = (
                    tracer is not None
                    and tracer.enabled
                    and tracer.open_rpc(src, attrs, call.kind)
                )
                status = None
                try:
                    msg = Message(
                        ("msg", self._ids.next_num("msg")),
                        src,
                        call.dst,
                        call.kind,
                        call.payload,
                        dedup=dedup,
                        trace=tracer.current_context() if traced else None,
                        deadline=deadline,
                    )
                    outcome, value, error, _, reply, wait, stall = self._leg(
                        msg, False, deadline, start, error_overrun_fails=False
                    )
                    attrs["outcome"] = outcome
                    outcomes.append(RpcOutcome(call.dst, outcome == "ok", value, error, wait))
                    if outcome == "undeliverable":
                        continue
                    attrs["bytes"] = msg.size_bytes
                    attrs["delay"] = round(wait, 9)
                    if outcome == "deadline":
                        # An abandoned wait is a stall from the caller's
                        # seat, whatever the wire was doing.
                        stall = wait
                    else:
                        stall = min(stall, wait)
                        if stall:
                            attrs["stall"] = round(stall, 9)
                    if outcome == "ok" and health is not None:
                        # Recorded at the batch's start time, before the
                        # batch advances the clock.
                        health.record_success(call.dst, wait)
                except BaseException as exc:
                    status = exc.__class__.__name__
                    raise
                finally:
                    if traced:
                        tracer.close_rpc(status)
                # A reply that landed past the deadline owns the tail even
                # on a tie: its full round trip is what the caller gave up on.
                if wait > max_delay or (outcome == "deadline" and reply is not None):
                    max_delay = wait
                    batch_stall = stall
            self.clock.advance(max_delay)
            batch.set(max_delay=round(max_delay, 9))
            if batch_stall:
                batch.set(stall=round(batch_stall, 9))
        stats = self.stats
        stats.add("concurrent_batches")
        stats.add("batched_legs", len(legs))
        stats.registry.record_value(stats.NODE, "net.batch_latency", max_delay)
        return outcomes

    # -- duplicate delivery (fault model) ----------------------------------

    def _maybe_duplicate(self, msg: Message) -> None:
        """Inline duplicate: re-dispatch a just-delivered request once."""
        if msg.is_reply or not self.faults.should_duplicate(msg):
            return
        self.redeliver(msg, advance=False)

    def redeliver(self, msg: Message, advance: bool = False) -> None:
        """Deliver an already-delivered request a second time.

        Fault-model entry point: the chaos injector uses it to model a
        flaky link re-transmitting (possibly long after the original,
        even across a sender restart — which is what incarnation fencing
        exists for). The duplicate's result is discarded and its errors
        are swallowed: the network produced it, no caller is waiting.
        Never cascades (a redelivery is not itself duplicated).

        Shares :meth:`_undeliverable` / :meth:`_account_delivery` with
        the first-delivery path; the only differences are the silent
        give-up (no raise, no dropped/unreachable counters — nobody is
        waiting) and the extra ``duplicates`` counter.
        """
        if msg.src not in self._addresses or self._undeliverable(msg) is not None:
            return
        self._account_delivery(msg, advance)
        self.stats.add("duplicates")
        # A duplicate belongs to the trace of the original request: re-enter
        # its context (a scheduler-fired redelivery otherwise has no parent).
        tracer = self.tracer
        activate = tracer.activate(msg.trace) if tracer is not None else nullcontext()
        # ``deferred`` marks a span as temporally detached from its
        # parent: a scheduler-fired redelivery lands long after the
        # original rpc span closed, so the chrome-trace containment
        # validator (and the attribution partition) must not expect it
        # inside the parent's interval. That holds for ``net.redeliver``
        # and for the handler span that re-enters the same context.
        deferring = tracer.deferring(msg.trace) if tracer is not None else nullcontext()
        with activate, deferring, maybe_span(
            tracer, "net.redeliver", msg.src, dst=msg.dst, kind=msg.kind,
            deferred=True,
        ):
            try:
                result = self._handlers[msg.dst](msg)
            except Exception:  # noqa: BLE001 - nobody is waiting for this outcome
                return
            try:
                self._account_reply(msg, result if result is not None else {}, advance=False)
            except NetworkError:
                pass

    # -- reply accounting --------------------------------------------------

    def _account_reply(
        self, request: Message, payload: dict[str, Any], advance: bool = True
    ) -> tuple[float, float]:
        """Account the reply leg of ``request``; raises if it is lost.

        Returns the reply's delay and its stall component (the share a
        stalled destination added, which latency attribution carves out
        of wire transit — repro.obs.critical).

        The reply can fail independently of the request: the requester
        went down/partitioned away mid-call (``UnreachableError``) or a
        fault rule drops the reply in flight (``MessageDropped``). In
        both cases the handler has already executed — the side effect is
        persisted, only the acknowledgement is gone. ``reply_lost`` is
        counted (the generic ``dropped``/``unreachable`` counters keep
        meaning "request legs that failed") and reply-loss taps fire so
        chaos can queue both endpoints for reconciliation.
        """
        reply = Message(
            ("msg", self._ids.next_num("msg")),
            request.dst,
            request.src,
            request.kind,
            payload,
            is_reply=True,
        )
        faults = self.faults
        active = faults.active  # inert: the reply cannot be lost or delayed
        if active and not faults.reachable(request.dst, request.src):
            self.stats.add("reply_lost")
            for tap in self.reply_loss_taps:
                tap(reply)
            raise UnreachableError(
                f"reply to {request.src!r} lost: unreachable from {request.dst!r}"
            )
        if active and faults.should_drop(reply):
            self.stats.add("reply_lost")
            for tap in self.reply_loss_taps:
                tap(reply)
            raise MessageDropped(
                f"reply {reply.msg_id} ({reply.kind}) dropped by fault rule"
            )
        delay = self.latency.delay(
            self._addresses[request.dst], self._addresses[request.src], reply
        )
        stall = 0.0
        if active:
            # Gray inflation on the reply leg, plus the stall penalty: a
            # stalled node executed the handler (side effects landed, it
            # looks alive to liveness probes) but its reply crawls home.
            # Loopback is exempt (like gray_delay): a self-invocation
            # never traverses the wedged network-facing reply path.
            delay += faults.gray_delay(request.dst, request.src)
            if request.dst != request.src:
                stall = faults.stall_delay(request.dst)
                delay += stall
        if advance:
            self.clock.advance(delay)
        self._count_leg(reply, delay)
        for tap in self.taps:
            tap(reply)
        return delay, stall
