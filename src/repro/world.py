"""SyDWorld — a complete simulated SyD deployment in one object.

The top-level fixture every example, test and benchmark starts from: it
owns the virtual clock, the discrete-event scheduler, the simulated
transport, the directory node, and all device nodes.

Typical use::

    from repro import SyDWorld

    world = SyDWorld(seed=42)
    phil = world.add_node("phil")
    andy = world.add_node("andy", store_kind="flatfile")
    ...

Store kinds: ``"relational"`` (default), ``"flatfile"``, ``"list"`` —
the heterogeneity axis of paper §2.
"""

from __future__ import annotations

from typing import Any

from repro.datastore.flatfile import FlatFileStore
from repro.datastore.liststore import ListStore
from repro.datastore.store import DataStore, RelationalStore
from repro.kernel.directory import (
    DEFAULT_DIRECTORY_NODE,
    DirectoryCache,
    SyDDirectoryService,
)
from repro.kernel.listener import SyDListener
from repro.kernel.node import SyDNode
from repro.net.address import DeviceClass, NodeAddress
from repro.net.dedup import DedupPersistence, DedupTable
from repro.net.latency import CampusNetworkLatency, LatencyModel, ZeroLatency
from repro.net.retry import RetryPolicy
from repro.net.stats import NetworkStats
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.security.envelope import Credentials
from repro.sim.kernel import EventScheduler
from repro.sim.random import RandomStreams
from repro.util.clock import VirtualClock
from repro.util.errors import ReproError
from repro.util.trace import Tracer

STORE_KINDS = {
    "relational": RelationalStore,
    "flatfile": FlatFileStore,
    "list": ListStore,
}


class SyDWorld:
    """Builder/owner of one simulated SyD network."""

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel | str = "campus",
        auth_passphrase: str | None = None,
        directory_node: str = DEFAULT_DIRECTORY_NODE,
        directory_cache: bool = False,
        dedup: bool = True,
        recovery: bool = True,
        tracing: bool = True,
        trace_sample: int = 1,
        directory_shards: int = 1,
        directory_replicas: int = 1,
        health: bool = False,
        hedge: bool | None = None,
    ):
        self.clock = VirtualClock()
        self.scheduler = EventScheduler(self.clock)
        self.random = RandomStreams(seed)
        #: fleet-wide metrics sink (per-node counters/gauges/digests);
        #: ``transport.stats`` is a view over it under the "net" node
        self.metrics = MetricsRegistry(self.clock)
        if latency == "campus":
            latency = CampusNetworkLatency(rng=self.random.get("net"))
        elif latency == "zero":
            latency = ZeroLatency()
        elif isinstance(latency, str):
            raise ReproError(f"unknown latency preset {latency!r}")
        #: span-model tracer. ``tracing=False`` turns the layer fully off
        #: (no spans, no trace headers on the wire — zero byte overhead);
        #: ``trace_sample=k`` records every k-th root trace only.
        self.tracer = Tracer(self.clock, sample=trace_sample)
        self.tracer.enabled = tracing
        self.transport = Transport(
            clock=self.clock,
            latency=latency,
            stats=NetworkStats(self.metrics),
            tracer=self.tracer,
        )
        # Scheduler-fired callbacks (lease sweeps, chaos fault events,
        # redeliveries) run with a detached span stack: they are their own
        # root traces, not children of whichever span was open while a
        # retry backoff pumped the clock.
        self.scheduler.callback_wrapper = self.tracer.detached
        self.auth_passphrase = auth_passphrase
        self.directory_node = directory_node
        #: receiver-side exactly-once dedup on every listener. False is the
        #: chaos ablation: requests stay *stamped* (so the
        #: no-double-application checker can still attribute executions)
        #: but nothing suppresses re-execution.
        self.dedup = dedup
        #: durable negotiation intent logs + restart-time crash recovery.
        #: False is the chaos ablation: intent logs stay volatile (wiped
        #: by restarts) and ``restart`` skips the recovery replay — the
        #: pre-recovery coordinator.
        self.recovery = recovery
        self.nodes: dict[str, SyDNode] = {}

        #: ShardedDirectory controller when ``directory_shards > 1``;
        #: None keeps the single-node directory (byte-identical to the
        #: pre-sharding world — the default).
        self.directory_topology = None
        if directory_shards <= 1:
            # The directory lives on a dedicated server node with its own
            # listener (it is not a user; it only answers invocations). Its
            # dedup watermarks persist in the directory's own store.
            self.directory_service = SyDDirectoryService()
            directory_dedup = (
                DedupTable(persist=DedupPersistence(self.directory_service.store))
                if dedup
                else None
            )
            self.directory_listener = SyDListener(
                directory_node, dedup=directory_dedup, tracer=self.tracer, metrics=self.metrics
            )
            self.directory_listener.publish_object(self.directory_service)
            self.transport.register(
                NodeAddress(directory_node, DeviceClass.SERVER),
                lambda msg: self.directory_listener.handle_invoke(msg),
            )
        else:
            from repro.kernel.sharding import ShardedDirectory

            self.directory_topology = ShardedDirectory(
                self.transport,
                shards=directory_shards,
                replicas=directory_replicas,
                node_prefix=directory_node,
                ring_seed=seed,
                dedup=dedup,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            # The controller doubles as the in-process facade chaos
            # injectors and invariant checkers read as ground truth.
            self.directory_service = self.directory_topology
            self.directory_listener = None
        #: adaptive robustness layer (off by default — zero hot-path cost
        #: when ``transport.health is None``): a phi-accrual
        #: HealthMonitor fed by piggybacked RPC outcomes and message-free
        #: heartbeat sweeps, plus lease-derived deadline budgets on every
        #: coordinator. ``hedge`` additionally turns on hedged directory
        #: reads (defaults to follow ``health``).
        self.health = None
        self.hedge = bool(hedge) if hedge is not None else health
        if health:
            from repro.net.health import HealthMonitor

            self.health = HealthMonitor(self.clock, metrics=self.metrics)
            self.transport.health = self.health
            self._health_rng = self.random.get("health")
            self._schedule_health_sweep()
        self._directory_cache_enabled = False
        self._retry_template: RetryPolicy | None = None
        if directory_cache:
            self.enable_directory_cache()

    # -- adaptive health ----------------------------------------------------------

    #: heartbeat sweep cadence in simulated seconds (plus seeded jitter)
    HEARTBEAT_INTERVAL = 2.0

    def _schedule_health_sweep(self) -> None:
        # Per-tick seeded jitter so sweeps never phase-lock with workload
        # events; the stream is private, so adding it cannot perturb any
        # existing seeded schedule.
        delay = self.HEARTBEAT_INTERVAL + self._health_rng.uniform(0.0, 0.5)
        self.scheduler.schedule(delay, self._health_sweep)

    def _health_sweep(self) -> None:
        """One message-free heartbeat round over every known node.

        Probes read transport-level liveness ground truth: a *down* node
        fails its probe, but a stalled or slow one passes — it is alive
        to binary pings and useless to callers, which is exactly the
        gray trap the phi detector's RPC-fed signals compensate for.
        Heartbeats move no simulated messages, so enabling health never
        changes traffic counts.
        """
        faults = self.transport.faults
        probes = [
            (node.node_id, not faults.is_down(node.node_id))
            for _user, node in sorted(self.nodes.items())
        ]
        if self.directory_topology is not None:
            probes.extend(
                (node_id, not faults.is_down(node_id))
                for node_id in self.directory_topology.all_shard_nodes()
            )
        self.health.sweep(probes)
        self._schedule_health_sweep()

    # -- retry policy -------------------------------------------------------------

    def set_retry_policy(self, policy: RetryPolicy | None) -> None:
        """Install (or clear, with None) a retry/backoff policy on every
        node's engine and directory client, current and future.

        ``policy`` is a template: each node gets its own copy whose
        jitter draws from a per-user seeded stream and whose backoff
        sleeps run the event scheduler forward
        (``scheduler.run_until(now + delay)``) — so scheduled heals,
        restarts and drop-rule expiries fire *during* a backoff, which is
        what lets a retried leg succeed.
        """
        self._retry_template = policy
        for user, node in self.nodes.items():
            self._install_retry_policy(user, node)

    def _install_retry_policy(self, user: str, node: SyDNode) -> None:
        from dataclasses import replace

        template = self._retry_template
        if template is None:
            node.engine.retry_policy = None
            node.directory.retry_policy = None
            return
        policy = replace(
            template,
            rng=self.random.get(f"retry:{user}"),
            sleep=lambda delay: self.scheduler.run_until(self.clock.now() + delay),
        )
        node.engine.retry_policy = policy
        node.directory.retry_policy = policy

    def enable_directory_cache(self) -> None:
        """Give every node (current and future) an epoch-validated
        directory cache (opt-in; see :class:`DirectoryCache`)."""
        self._directory_cache_enabled = True
        for user, node in self.nodes.items():
            if node.directory.cache is None:
                node.directory.attach_cache(self._new_directory_cache(user))

    def _new_directory_cache(self, user: str) -> DirectoryCache:
        if self.directory_topology is not None:
            # Per-shard buckets: a mutation on one shard flushes only
            # that shard's cached entries.
            return DirectoryCache(
                self.directory_topology.epoch_of,
                metrics=self.metrics,
                metrics_node=user,
                shard_of=self.directory_topology.primary_shard_for,
            )
        return DirectoryCache(
            lambda: self.directory_service.epoch,
            metrics=self.metrics,
            metrics_node=user,
        )

    def _make_directory_client(self, node_id: str):
        if self.directory_topology is not None:
            from repro.kernel.sharding import ShardedDirectoryClient

            client = ShardedDirectoryClient(
                node_id, self.transport, self.directory_topology
            )
            if self.health is not None:
                client.health = self.health
                client.hedge = self.hedge
            return client
        from repro.kernel.directory import DirectoryClient

        return DirectoryClient(node_id, self.transport, self.directory_node)

    # -- directory shards ---------------------------------------------------------

    def directory_listeners(self) -> list[tuple[str, SyDListener]]:
        """(label, listener) for every directory node, sharded or not."""
        if self.directory_topology is None:
            return [("directory", self.directory_listener)]
        return [
            (shard.node_id, shard.listener)
            for shard in self.directory_topology.shard_list()
        ]

    def directory_replays(self) -> int:
        """Dedup replays answered across all directory listeners."""
        return sum(listener.replays for _label, listener in self.directory_listeners())

    def directory_shard_names(self) -> list[str]:
        return [] if self.directory_topology is None else self.directory_topology.shard_names()

    def _require_topology(self):
        if self.directory_topology is None:
            raise ReproError("world was not built with directory_shards > 1")
        return self.directory_topology

    def add_directory_shard(self) -> str:
        """Join a fresh shard and rebalance its key share onto it."""
        return self._require_topology().add_shard()

    def remove_directory_shard(self, name: str | None = None) -> str:
        """Drain and retire a shard (newest by default)."""
        return self._require_topology().remove_shard(name)

    def crash_directory_shard(self, name: str) -> None:
        """Power off one directory shard node (lookups fail over)."""
        self.transport.faults.set_down(self._require_topology().node_of(name))

    def restart_directory_shard(self, name: str) -> int:
        """Power a shard back on: fresh listener state + anti-entropy
        repair from its live co-owners. Returns records restored."""
        topology = self._require_topology()
        shard = topology.shards[name]
        shard.listener.restart()
        self.transport.faults.set_up(shard.node_id)
        if self.health is not None:
            self.health.forget(shard.node_id)
        return topology.repair_shard(name)

    def directory_shard_is_up(self, name: str) -> bool:
        return not self.transport.faults.is_down(self._require_topology().node_of(name))

    # -- topology -----------------------------------------------------------------

    def add_node(
        self,
        user: str,
        *,
        store_kind: str = "relational",
        device_class: DeviceClass = DeviceClass.PDA,
        password: str | None = None,
        proxy_node: str | None = None,
        info: dict[str, Any] | None = None,
        join: bool = True,
    ) -> SyDNode:
        """Create a device node for ``user`` and (by default) publish it.

        When the world has an ``auth_passphrase`` and a ``password`` is
        given, the node sends credentials on outgoing calls and enforces
        authentication on its own application objects.
        """
        if user in self.nodes:
            raise ReproError(f"user {user!r} already has a node")
        try:
            store_cls = STORE_KINDS[store_kind]
        except KeyError:
            raise ReproError(f"unknown store kind {store_kind!r}") from None
        store: DataStore = store_cls(f"{user}-store")
        credentials = None
        if password is not None and self.auth_passphrase is not None:
            credentials = Credentials(user, password)
        node = SyDNode(
            user,
            store,
            self.transport,
            self.scheduler,
            device_class=device_class,
            directory_node=self.directory_node,
            tracer=self.tracer,
            credentials=credentials,
            auth_passphrase=self.auth_passphrase,
            dedup=self.dedup,
            recovery=self.recovery,
            metrics=self.metrics,
            directory_factory=self._make_directory_client,
        )
        self.nodes[user] = node
        if self.health is not None:
            # Failover ordering + outright-quarantine audit for this
            # node's outgoing calls, and the lease-derived deadline
            # budget on its coordinator (half the lease for the
            # pre-decide phases; post-decide/epilogue waves take their
            # grace windows from the remainder — see coordinator docs).
            node.engine.health = self.health
            node.coordinator.lease_budget = 0.5 * node.coordinator.lease_limit
        if self._directory_cache_enabled:
            node.directory.attach_cache(self._new_directory_cache(user))
        if self._retry_template is not None:
            self._install_retry_policy(user, node)
        if join:
            node.join(proxy_node=proxy_node, info=info)
        if credentials is not None:
            table = node.enable_authentication(self.auth_passphrase)
            # A user is always authorized on their own device (even a
            # self-invocation crosses the simulated network).
            table.grant(user, password)
        return node

    def node(self, user: str) -> SyDNode:
        """The node of ``user`` (raises for unknown users)."""
        try:
            return self.nodes[user]
        except KeyError:
            raise ReproError(f"no node for user {user!r}") from None

    def users(self) -> list[str]:
        return sorted(self.nodes)

    # -- faults / mobility --------------------------------------------------------------

    def take_down(self, user: str) -> None:
        """Power off a user's device (messages to it fail)."""
        node = self.node(user)
        self.transport.faults.set_down(node.node_id)

    def bring_up(self, user: str) -> None:
        """Power the device back on.

        The lock table is volatile, so a restart comes up lock-free —
        this is the "participant that vanished after locking drops its
        locks at reconnect" half of the negotiation protocol's
        best-effort unlock contract.
        """
        node = self.node(user)
        node.locks.clear()
        self.transport.faults.set_up(node.node_id)

    def restart(self, user: str) -> None:
        """Power-cycle recovery: :meth:`bring_up` plus exactly-once fencing.

        The restarted node loses its volatile state (lock table, dedup
        reply cache — persisted watermarks reload from its store) and its
        *sender incarnation* is bumped: requests it stamped before the
        crash are now stale at every receiver, and its fresh sequence
        numbering cannot be mistaken for duplicates of the old one.
        Once the node is reachable again its coordinator replays the
        durable intent log and resolves every negotiation it had in
        flight (presumed-abort; skipped when the world was built with
        ``recovery=False``). ``bring_up`` is the legacy path without
        fencing.
        """
        node = self.node(user)
        node.locks.clear()
        node.listener.restart()
        self.transport.bump_incarnation(node.node_id)
        self.transport.faults.set_up(node.node_id)
        if self.health is not None:
            # A restarted node's arrival rhythm is void; start fresh so
            # stale suspicion never shadows the new incarnation.
            self.health.forget(node.node_id)
        if self.recovery:
            node.coordinator.recover()
        else:
            # No recovery: the volatile intent log is simply lost with the
            # rest of the node's memory — pre-crash decisions are gone.
            node.intent_log.restart()

    def is_up(self, user: str) -> bool:
        return not self.transport.faults.is_down(self.node(user).node_id)

    # -- time -----------------------------------------------------------------------------

    def run_for(self, seconds: float) -> int:
        """Advance virtual time, firing due scheduled events."""
        return self.scheduler.run_until(self.clock.now() + seconds)

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def stats(self):
        """Network traffic counters."""
        return self.transport.stats
