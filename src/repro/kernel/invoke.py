"""The invoke path: one wire format and one client call path.

Paper §3.1: the SyDEngine executes services "via SyDListener", and
SyDDirectory and name-server lookups are invocations too. Every client
builds its request with :func:`request` and every server reads it back
with :func:`target` and answers with :func:`reply`. Clients send one
request with :func:`call` (one idempotency key, retried under the
caller's :class:`~repro.net.retry.RetryPolicy`) or a scatter-gather
batch with :func:`call_many`, and unwrap a leg's reply with
:func:`result`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.net.retry import RetryPolicy, retry_call, rpc_many_with_retry
from repro.net.transport import RpcOutcome, Transport

#: the message kind every invocation travels as
KIND = "invoke"


def request(
    object_name: str, method: str, args: Sequence = (), kwargs: dict | None = None
) -> dict[str, Any]:
    """The payload invoking ``object_name.method(*args, **kwargs)``."""
    return {
        "object": object_name,
        "method": method,
        "args": list(args),
        "kwargs": {} if kwargs is None else kwargs,
    }


def target(payload: dict[str, Any]) -> tuple[str, str, list, dict]:
    """``(object_name, method, args, kwargs)`` of a request payload."""
    return (
        payload["object"],
        payload["method"],
        payload.get("args", []),
        payload.get("kwargs", {}),
    )


def reply(value: Any) -> dict[str, Any]:
    """The reply payload carrying a method's return value."""
    return {"result": value}


def result(payload: dict[str, Any] | None) -> Any:
    """The return value in one leg's reply payload.

    Takes what :meth:`Transport.rpc` returned, or the ``value`` of an
    ok :class:`RpcOutcome`.
    """
    return (payload or {}).get("result")


def call(
    transport: Transport,
    src: str,
    dst: str,
    payload: dict[str, Any],
    policy: RetryPolicy | None,
    deadline: float | None = None,
) -> Any:
    """Invoke at ``dst`` and return the method's value.

    One idempotency key covers the whole retry loop: every re-attempt
    carries the same key, so a lost *reply* never double-executes.
    ``deadline`` (absolute simulated time) caps the attempts and the
    backoffs between them.
    """
    dedup = transport.next_dedup(src, dst)
    return result(
        retry_call(
            policy,
            transport.stats,
            lambda: transport.rpc(src, dst, KIND, payload, dedup=dedup, deadline=deadline),
            tracer=transport.tracer,
            node=src,
            deadline=deadline,
            clock=transport.clock,
        )
    )


def call_many(
    transport: Transport,
    src: str,
    legs: Sequence[tuple[str, dict[str, Any]]],
    policy: RetryPolicy | None,
    deadline: float | None = None,
) -> list[RpcOutcome]:
    """Invoke every ``(dst, payload)`` leg in one scatter-gather batch.

    Failed legs are re-sent under ``policy`` (see
    :func:`~repro.net.retry.rpc_many_with_retry`); the outcomes match
    ``legs`` by position.
    """
    return rpc_many_with_retry(
        transport, src, [(dst, KIND, payload) for dst, payload in legs], policy, deadline
    )
