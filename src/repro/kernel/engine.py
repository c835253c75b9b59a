"""SyDEngine — single and group remote execution with result aggregation.

Paper §3.1(c): "Allows users to execute single or group services remotely
via SyDListener and aggregate results." The engine is also where mobility
becomes transparent: a call to an unreachable device fails over to the
user's proxy (paper §5.2 — "the proxy and the SyD object act as a single
entity for an outsider").

Resolution order for ``execute(user, service, method)``:

1. ``lookup_user`` + ``lookup_service`` at the SyDDirectory.
2. RPC the user's home node.
3. On :class:`UnreachableError`: RPC the user's proxy node, if any,
   with the same payload (the proxy hosts/mirrors the user's objects).

Group execution is *scatter-gather* (the prototype issued group calls as
concurrent Java-RMI invocations): :meth:`SyDEngine.execute_calls` runs
batched waves — directory resolution for every member in one
``rpc_many`` batch, then one batch of ``invoke`` legs to the home nodes,
then a second batched wave re-trying unreachable legs at their proxies.
Message counts are identical to the sequential loop; only the virtual
clock advance shrinks from the sum of member round trips to the max.
Set ``engine.batching = False`` to fall back to the sequential loop
(used by benchmarks as the ablation baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.kernel import invoke
from repro.kernel.aggregate import Aggregator, GroupResult, InvocationResult
from repro.kernel.directory import DirectoryClient
from repro.net.retry import RetryPolicy
from repro.net.transport import Transport
from repro.security.envelope import Credentials, seal
from repro.util.errors import ReproError, UnreachableError


@dataclass(frozen=True)
class CallSpec:
    """One member call of a batched group execution."""

    user: str
    service: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass
class CallOutcome:
    """Per-member outcome of a batched execution.

    ``error`` holds the same typed exception the sequential
    ``execute`` path would have raised for this member.
    """

    user: str
    ok: bool
    value: Any = None
    error: Exception | None = None
    via_proxy: bool = False


class SyDEngine:
    """Per-node invoker of remote services."""

    def __init__(
        self,
        node_id: str,
        transport: Transport,
        directory: DirectoryClient,
        credentials: Credentials | None = None,
        auth_passphrase: str | None = None,
    ):
        self.node_id = node_id
        self.transport = transport
        self.directory = directory
        self.credentials = credentials
        self.auth_passphrase = auth_passphrase
        #: optional :class:`~repro.net.health.HealthMonitor` — when set,
        #: proxy failover consults suspicion *ordering* (a device whose phi
        #: dwarfs its proxy's is tried second, not first) and quarantined
        #: devices (phi past the hard bar) are skipped outright; every
        #: outright skip is audited against ground truth for the
        #: ``no_false_deaths`` invariant
        self.health = None
        #: count of calls that were served by a proxy instead of the device
        self.proxy_fallbacks = 0
        self.calls = 0
        #: scatter-gather group execution (False = sequential ablation)
        self.batching = True
        #: optional retry/backoff over transient transport failures; the
        #: world installs per-node seeded policies (see
        #: :meth:`repro.world.SyDWorld.set_retry_policy`)
        self.retry_policy: RetryPolicy | None = None

    # -- low level -------------------------------------------------------------

    def _payload(
        self, object_name: str, method: str, args: tuple, kwargs: dict
    ) -> dict[str, Any]:
        payload = invoke.request(object_name, method, args, kwargs)
        if self.credentials is not None and self.auth_passphrase is not None:
            payload["auth"] = seal(self.credentials, self.auth_passphrase)
        return payload

    def execute_on_node(
        self,
        node_id: str,
        object_name: str,
        method: str,
        *args: Any,
        deadline: float | None = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke a method on a specific node, no directory resolution.

        ``deadline`` (absolute simulated time) caps the call *and* its
        retry loop: attempts that would land past it fail with
        :class:`~repro.util.errors.DeadlineExceeded`, and the retry loop
        gives up as soon as the remaining budget cannot cover the next
        backoff.
        """
        self.calls += 1
        payload = self._payload(object_name, method, args, kwargs)
        return invoke.call(
            self.transport, self.node_id, node_id, payload, self.retry_policy, deadline
        )

    # -- single execution ----------------------------------------------------------

    def execute(
        self,
        user: str,
        service: str,
        method: str,
        *args: Any,
        deadline: float | None = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``service.method`` of ``user`` with proxy failover.

        With a :class:`HealthMonitor` installed, failover consults
        suspicion *ordering*: when the user's proxy looks markedly
        healthier than the home device, the proxy is tried first and the
        home device second — reordered, never shed. Only a device past
        the hard quarantine bar is skipped outright, and every such skip
        is audited against fault-plan ground truth so a wrongly condemned
        healthy device shows up as a ``no_false_deaths`` violation.
        """
        record = self.directory.lookup_user(user)
        svc = self.directory.lookup_service(user, service)
        object_name = svc["object_name"]
        home = record["node_id"]
        proxy = record.get("proxy_node")
        proxy_first = False
        if self.health is not None and proxy:
            if self.health.is_quarantined(home):
                self.health.record_verdict(
                    home, actually_healthy=self._ground_truth_healthy(home)
                )
                proxy_first = True
            else:
                proxy_first = self.health.rank([home, proxy])[0] == proxy
        try:
            if proxy_first:
                self.proxy_fallbacks += 1
                return self._invoke_via_proxy(
                    user, proxy, object_name, method, args, kwargs, deadline
                )
            return self.execute_on_node(
                home, object_name, method, *args, deadline=deadline, **kwargs
            )
        except UnreachableError:
            if proxy_first:
                # The preferred proxy was unreachable after all. The home
                # device is still a candidate: suspicion reorders the
                # attempt sequence, it never sheds a reachable node.
                return self.execute_on_node(
                    home, object_name, method, *args, deadline=deadline, **kwargs
                )
            if not proxy:
                raise
            self.proxy_fallbacks += 1
            return self._invoke_via_proxy(
                user, proxy, object_name, method, args, kwargs, deadline
            )

    def _invoke_via_proxy(
        self,
        user: str,
        proxy: str,
        object_name: str,
        method: str,
        args: tuple,
        kwargs: dict,
        deadline: float | None = None,
    ) -> Any:
        # The proxy accepts the same invoke payload, plus the user id it
        # should impersonate.
        payload = self._payload(object_name, method, args, kwargs)
        payload["for_user"] = user
        self.calls += 1
        # Fresh key for the proxy attempt: the same key must never be
        # executable at two different nodes (the home attempt may have
        # applied before its reply was lost).
        return invoke.call(
            self.transport, self.node_id, proxy, payload, self.retry_policy, deadline
        )

    def _ground_truth_healthy(self, node_id: str) -> bool:
        """Fault-plan ground truth for quarantine audits only.

        Protocol code never reads fault state to make decisions; this
        exists so every quarantine skip can be judged after the fact by
        the ``no_false_deaths`` invariant. A node is "actually healthy"
        when it is reachable and not under any gray rule.
        """
        faults = self.transport.faults
        return (
            faults.reachable(self.node_id, node_id)
            and faults.stall_delay(node_id) == 0.0
            and node_id not in faults.slow_nodes()
            and not any(node_id in pair for pair in faults.degraded_pairs())
        )

    # -- batched execution -----------------------------------------------------------

    def execute_calls(
        self, specs: Sequence[CallSpec], deadline: float | None = None
    ) -> list[CallOutcome]:
        """Run every spec with per-member outcomes (never raises per member).

        Batched mode resolves and invokes in scatter-gather waves:
        member failures — unknown user/service, unreachable device with
        no proxy, remote handler errors — are captured per member, and
        legs that failed with :class:`UnreachableError` retry at the
        member's proxy in one second batched wave. Sequential mode
        (``batching = False``) loops :meth:`execute`, capturing the same
        errors; both modes move the same messages.

        ``deadline`` caps the invoke waves and their retry loops; a leg
        that cannot land in budget fails with
        :class:`~repro.util.errors.DeadlineExceeded` (not retryable).
        Directory resolution is not deadlined — lookups ride the replica
        failover/hedging machinery instead.
        """
        if not specs:
            return []
        if not self.batching:
            outcomes = []
            for spec in specs:
                try:
                    value = self.execute(
                        spec.user,
                        spec.service,
                        spec.method,
                        *spec.args,
                        deadline=deadline,
                        **spec.kwargs,
                    )
                    outcomes.append(CallOutcome(spec.user, True, value))
                except ReproError as exc:
                    outcomes.append(CallOutcome(spec.user, False, error=exc))
            return outcomes

        outcomes: list[CallOutcome | None] = [None] * len(specs)

        # Wave 0a: user records for every member, one batch.
        user_lookups = self.directory.lookup_users_many([s.user for s in specs])
        resolved: list[int] = []
        for i, (record, error) in enumerate(user_lookups):
            if error is not None:
                outcomes[i] = CallOutcome(specs[i].user, False, error=error)
            else:
                resolved.append(i)

        # Wave 0b: service records for members whose user resolved.
        svc_lookups = self.directory.lookup_services_many(
            [(specs[i].user, specs[i].service) for i in resolved]
        )
        pending: list[tuple[int, dict[str, Any], str]] = []
        for i, (svc, error) in zip(resolved, svc_lookups):
            if error is not None:
                outcomes[i] = CallOutcome(specs[i].user, False, error=error)
            else:
                pending.append((i, user_lookups[i][0], svc["object_name"]))

        # Wave 1: concurrent invoke legs at the members' home nodes.
        legs = [
            (
                record["node_id"],
                self._payload(object_name, specs[i].method, specs[i].args, specs[i].kwargs),
            )
            for i, record, object_name in pending
        ]
        self.calls += len(legs)
        results = invoke.call_many(
            self.transport, self.node_id, legs, self.retry_policy, deadline
        )

        retry: list[tuple[int, dict[str, Any], str]] = []
        for (i, record, object_name), outcome in zip(pending, results):
            if outcome.ok:
                outcomes[i] = CallOutcome(specs[i].user, True, invoke.result(outcome.value))
            elif isinstance(outcome.error, UnreachableError) and record.get("proxy_node"):
                retry.append((i, record, object_name))
            else:
                outcomes[i] = CallOutcome(specs[i].user, False, error=outcome.error)

        # Wave 2: batched proxy failover for the unreachable legs.
        if retry:
            proxy_legs = []
            for i, record, object_name in retry:
                payload = self._payload(
                    object_name, specs[i].method, specs[i].args, specs[i].kwargs
                )
                payload["for_user"] = specs[i].user
                proxy_legs.append((record["proxy_node"], payload))
            self.calls += len(proxy_legs)
            self.proxy_fallbacks += len(proxy_legs)
            proxy_results = invoke.call_many(
                self.transport, self.node_id, proxy_legs, self.retry_policy, deadline
            )
            for (i, _record, _object_name), outcome in zip(retry, proxy_results):
                if outcome.ok:
                    outcomes[i] = CallOutcome(
                        specs[i].user, True, invoke.result(outcome.value), via_proxy=True
                    )
                else:
                    outcomes[i] = CallOutcome(
                        specs[i].user, False, error=outcome.error, via_proxy=True
                    )

        return outcomes  # type: ignore[return-value]

    # -- group execution -------------------------------------------------------------

    def execute_group(
        self,
        users: Sequence[str] | str,
        service: str,
        method: str,
        *args: Any,
        aggregator: Aggregator | None = None,
        per_user_args: Callable[[str], tuple] | None = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke the same service method on every member of a group.

        ``users`` may be a list of user ids or a directory group id.
        Per-member failures are captured, not raised, so one dead PDA
        does not break the group call (the aggregator decides policy).
        When ``per_user_args`` is given it overrides ``args`` per member.

        All member legs travel as one scatter-gather batch (per wave), so
        the group costs ~one round trip of virtual time regardless of n.

        Returns the :class:`GroupResult`, or the aggregated value when an
        ``aggregator`` is supplied.
        """
        if isinstance(users, str):
            users = self.directory.group_members(users)
        specs = [
            CallSpec(
                user,
                service,
                method,
                per_user_args(user) if per_user_args else args,
                kwargs,
            )
            for user in users
        ]
        results = [
            InvocationResult(o.user, True, o.value)
            if o.ok
            else InvocationResult(
                o.user, False, None, type(o.error).__name__, str(o.error)
            )
            for o in self.execute_calls(specs)
        ]
        group = GroupResult(tuple(results))
        return group.aggregate(aggregator) if aggregator else group
