"""Retry/backoff policy for the remote-invocation paths.

The paper's robustness story ("the proxy and the SyD object act as a
single entity for an outsider", §5.2) assumes the middleware masks the
flaky last hop. Without retries a single dropped leg surfaces as a failed
outcome and — worse — can leave a negotiation half-applied. The
:class:`RetryPolicy` gives :class:`~repro.kernel.engine.SyDEngine` and
:class:`~repro.kernel.directory.DirectoryClient` a capped, seeded
exponential backoff over the transient transport failures
(:class:`MessageDropped`, :class:`UnreachableError`); application errors
are never retried.

Backoff sleeps go through the policy's ``sleep`` callable. The simulated
world wires it to ``scheduler.run_until(now + delay)``, so a backoff
*pumps the discrete-event loop*: scheduled heals, restarts and drop-rule
expiries fire during the wait, which is exactly why a retried leg can
succeed where the first attempt failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.net.transport import Transport
from repro.util.errors import DeadlineExceeded, MessageDropped, UnreachableError
from repro.util.trace import maybe_span


@dataclass
class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    ``max_attempts`` counts total tries per leg (1 disables retries).
    ``rng`` supplies the jitter draw (seed it for determinism); ``sleep``
    receives the backoff delay in simulated seconds.
    """

    max_attempts: int = 4
    base_delay: float = 0.2
    max_delay: float = 2.0
    jitter: float = 0.5
    rng: random.Random | None = None
    sleep: Callable[[float], None] | None = None

    def retryable(self, error: BaseException) -> bool:
        """Is ``error`` a transient transport failure worth re-sending?"""
        return isinstance(error, (MessageDropped, UnreachableError))

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (the first retry is 1).

        ``base_delay * 2^(attempt-1)`` capped at ``max_delay``, scaled by
        a jitter factor drawn uniformly from ``[1-jitter, 1+jitter]``.
        """
        delay = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        if self.rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        return delay

    def pause_for(self, delay: float) -> None:
        """Sleep out a pre-computed backoff (keeps the jitter draw single)."""
        if self.sleep is not None:
            self.sleep(delay)


def retry_call(
    policy: RetryPolicy | None,
    stats,
    fn: Callable[[], object],
    tracer=None,
    node: str = "",
    deadline: float | None = None,
    clock=None,
):
    """Run ``fn`` under ``policy``, re-invoking on transient failures.

    ``stats`` (a :class:`~repro.net.stats.NetworkStats` or None) counts
    one ``retries`` per re-attempt and one ``retry_successes`` when a
    retried call eventually succeeds. With ``policy=None`` this is a
    plain call.

    With a ``deadline`` (absolute simulated time; requires ``clock``),
    the loop gives up with :class:`DeadlineExceeded` as soon as the
    remaining budget cannot cover the next backoff — retrying into a
    budget that is already gone only wastes the sickest node's time.
    Note :class:`DeadlineExceeded` raised *by an attempt* is never
    retried either: the policy only retries dropped/unreachable legs.

    When a ``tracer`` is given, the whole loop runs inside one
    ``net.call`` span and each try inside a ``net.attempt`` child — so
    every re-send of a leg lands in the *same* trace as the first
    attempt, numbered by its ``attempt`` attribute. Both are leg record
    parts (:class:`~repro.util.trace.LegRecord`): the first attempt
    opens with the call in one record, and a retry starts a new one.
    """
    attempt = 1
    backoff_total = 0.0
    started = clock.now() if (clock is not None and deadline is not None) else None
    call_attrs: dict = {}
    traced = (
        tracer is not None
        and tracer.enabled
        and tracer.open_call(node, call_attrs, {"attempt": 1})
    )
    tried = traced
    status = None
    try:
        while True:
            try:
                value = fn()
            except (MessageDropped, UnreachableError) as exc:
                if tried:
                    tracer.close_attempt(exc.__class__.__name__)
                if (
                    policy is None
                    or attempt >= policy.max_attempts
                    or not policy.retryable(exc)
                ):
                    call_attrs["attempts"] = attempt
                    call_attrs["exhausted"] = policy is not None
                    if backoff_total:
                        call_attrs["backoff_total"] = round(backoff_total, 9)
                    raise
                backoff = policy.backoff(attempt)
                if started is not None and clock.now() + backoff >= deadline:
                    call_attrs["attempts"] = attempt
                    call_attrs["budget_exhausted"] = True
                    if backoff_total:
                        call_attrs["backoff_total"] = round(backoff_total, 9)
                    raise DeadlineExceeded(
                        clock.now() - started,
                        deadline - started,
                        detail=f"retry budget for {node or 'call'}",
                    ) from exc
                policy.pause_for(backoff)
                backoff_total += backoff
                if stats is not None:
                    stats.add("retries")
                attempt += 1
                tried = (
                    tracer is not None
                    and tracer.enabled
                    and tracer.open_attempt(node, {"attempt": attempt})
                )
            except BaseException as exc:
                if tried:
                    tracer.close_attempt(exc.__class__.__name__)
                raise
            else:
                if tried:
                    tracer.close_attempt()
                if attempt > 1 and stats is not None:
                    stats.add("retry_successes")
                call_attrs["attempts"] = attempt
                if backoff_total:
                    call_attrs["backoff_total"] = round(backoff_total, 9)
                return value
    except BaseException as exc:
        status = exc.__class__.__name__
        raise
    finally:
        if traced:
            tracer.close_call(status)


def rpc_many_with_retry(
    transport: Transport,
    src: str,
    legs: Sequence,
    policy: RetryPolicy | None,
    deadline: float | None = None,
):
    """``Transport.rpc_many`` with per-leg retries under ``policy``.

    Failed legs whose error is retryable are re-sent (only those legs) in
    follow-up scatter-gather batches after the policy's backoff, until
    they succeed or attempts are exhausted. Surviving legs are never
    re-issued: each retry wave carries exactly the still-failed legs,
    re-using their pre-stamped idempotency keys. Returns the final
    outcome list, positionally matching ``legs``.

    Legs are pre-stamped with idempotency keys so every re-send of a leg
    carries the same key and the receiver's dedup table can replay
    instead of re-executing — the at-least-once → exactly-once upgrade.

    With a ``deadline``, every wave inherits it (legs that would land
    past it fail with :class:`DeadlineExceeded`, which is not
    retryable), and the wave loop stops as soon as the remaining budget
    cannot cover the next backoff.
    """
    legs = transport.stamp_calls(src, legs)
    outcomes = transport.rpc_many(src, legs, deadline)
    if policy is None:
        return outcomes
    tracer = transport.tracer
    attempt = 1
    while attempt < policy.max_attempts:
        pending = [
            i for i, o in enumerate(outcomes) if not o.ok and policy.retryable(o.error)
        ]
        if not pending:
            break
        backoff = policy.backoff(attempt)
        if deadline is not None and transport.clock.now() + backoff >= deadline:
            break
        # Re-send waves join the trace of the original batch's caller;
        # each wave is one span so the timeline shows scatter-gather
        # shrinking toward the stragglers. The backoff sleep happens
        # *inside* the wave span (stamped as ``backoff``) so latency
        # attribution charges it to retry.backoff, not to the caller.
        with maybe_span(
            tracer,
            "net.retry_wave",
            src,
            attempt=attempt + 1,
            legs=len(pending),
            backoff=round(backoff, 9),
        ):
            policy.pause_for(backoff)
            transport.stats.add("retries", len(pending))
            wave = [legs[i] for i in pending]
            redone = transport.rpc_many(src, wave, deadline)
        for i, outcome in zip(pending, redone):
            outcomes[i] = outcome
            if outcome.ok:
                transport.stats.add("retry_successes")
        attempt += 1
    return outcomes
