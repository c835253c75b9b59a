"""Sharded SyDDirectory: replicated shards behind the DirectoryClient API.

The directory of :mod:`repro.kernel.directory` is one logical node —
the exact bottleneck ROADMAP item 1 names. This module splits it into N
shard nodes (``<prefix>-s00`` …), each running its own
:class:`SyDDirectoryService` + :class:`SyDListener` over the ordinary
simulated transport, with records placed by the seeded
:class:`~repro.kernel.ring.HashRing`:

* ``u:<user_id>`` owns the user row **and** every service row of that
  user (services co-locate with their user, so ``register_service`` can
  keep its user-existence check local);
* ``g:<group_id>`` owns the group row.

Each key is replicated on R distinct shards; writes fan out to all
owners in one scatter-gather batch, reads try owners in ring order and
fail over past unreachable replicas under the caller's retry policy.

**Epochs.** Every shard keeps its own mutation epoch (the plain
:class:`SyDDirectoryService` counter), generalizing the PR 1 cache
epoch: a :class:`DirectoryCache` built with ``shard_of`` flushes only
the bucket of the shard that mutated.

**Epoch-fenced rebalancing.** ``add_shard`` / ``remove_shard`` run a
three-phase migration — **copy** (records reach their new owners while
the old ring keeps serving), **publish** (the new ring + topology
version become visible atomically), **prune** (old owners drop records
they no longer own, and every touched shard bumps its epoch). Lookups
during the copy phase are served by the old owners; after publish, by
the new owners, which already hold the data — so no window of the
migration returns ``UnknownUserError`` for a registered key.
``phase_hook`` lets tests drive traffic at each fence.

The controller itself is simulation control plane: it moves rows
in-process (modeling an operator-driven bulk transfer), while every
client verb crosses the simulated network.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.datastore.predicate import where
from repro.datastore.store import RelationalStore
from repro.kernel import invoke
from repro.kernel.directory import (
    DEFAULT_DIRECTORY_NODE,
    DIRECTORY_OBJECT,
    DirectoryClient,
    SyDDirectoryService,
)
from repro.kernel.listener import SyDListener
from repro.kernel.ring import DEFAULT_VNODES, HashRing
from repro.net.address import DeviceClass, NodeAddress
from repro.net.dedup import DedupPersistence, DedupTable
from repro.util.errors import MessageDropped, ReproError, UnreachableError

#: metrics node the controller's own counters live under
CONTROL = "directory-control"

#: hedge timer base in simulated seconds — a healthy primary gets the full
#: base before the second leg fires, a suspected one proportionally less;
#: ordinary round trips finish well under it, so healthy reads never send
#: a hedge leg
HEDGE_BASE = 0.25


class DirectoryShard:
    """One directory shard: a service + listener on its own server node."""

    def __init__(self, name: str, node_id: str, service: SyDDirectoryService, listener: SyDListener):
        self.name = name
        self.node_id = node_id
        self.service = service
        self.listener = listener


class ShardedDirectory:
    """Controller + in-process facade over N replicated directory shards.

    As a facade it answers the same verbs the single
    ``SyDDirectoryService`` answers in-process (``lookup_user``,
    ``set_proxy`` …) against the *primary* owner — chaos injectors and
    invariant checkers use it as ground truth, exactly as they read the
    single service directly in unsharded worlds.
    """

    def __init__(
        self,
        transport,
        *,
        shards: int = 2,
        replicas: int = 1,
        node_prefix: str = DEFAULT_DIRECTORY_NODE,
        ring_seed: int = 0,
        vnodes: int = DEFAULT_VNODES,
        dedup: bool = True,
        tracer=None,
        metrics=None,
    ):
        if shards < 1:
            raise ReproError(f"directory_shards must be >= 1, got {shards}")
        self.transport = transport
        self.node_prefix = node_prefix
        self.ring = HashRing(replicas=min(replicas, shards), vnodes=vnodes, seed=ring_seed)
        self.shards: dict[str, DirectoryShard] = {}
        self._dedup = dedup
        self._tracer = tracer
        self._metrics = metrics
        self._next_index = 0
        #: topology version: bumped every time a new ring is published
        self.version = 0
        #: cumulative (key, shard) copies created by rebalances
        self.keys_moved = 0
        #: optional test fence: called with "copy" / "publish" / "prune"
        #: at each rebalance phase boundary
        self.phase_hook: Callable[[str], None] | None = None
        for _ in range(shards):
            name = self._spawn_shard()
            self.ring.add_shard(name)
        self.version = 1

    # -- shard lifecycle ------------------------------------------------------

    def _spawn_shard(self) -> str:
        name = f"s{self._next_index:02d}"
        self._next_index += 1
        node_id = f"{self.node_prefix}-{name}"
        service = SyDDirectoryService(RelationalStore(f"directory-{name}"))
        dedup_table = (
            DedupTable(persist=DedupPersistence(service.store)) if self._dedup else None
        )
        listener = SyDListener(
            node_id, dedup=dedup_table, tracer=self._tracer, metrics=self._metrics
        )
        listener.publish_object(service)
        self.transport.register(
            NodeAddress(node_id, DeviceClass.SERVER),
            lambda msg, listener=listener: listener.handle_invoke(msg),
        )
        self.shards[name] = DirectoryShard(name, node_id, service, listener)
        return name

    def shard_names(self) -> list[str]:
        return sorted(self.shards)

    def shard_list(self) -> list[DirectoryShard]:
        return [self.shards[name] for name in self.shard_names()]

    def all_shard_nodes(self) -> list[str]:
        return [shard.node_id for shard in self.shard_list()]

    def node_of(self, name: str) -> str:
        return self.shards[name].node_id

    def newest_shard(self) -> str:
        return max(self.shards)

    # -- placement ------------------------------------------------------------

    @staticmethod
    def _ring_key(cache_key: tuple) -> str:
        """Ring key for a DirectoryCache-style key tuple.

        ``("user", uid)`` and ``("service", uid, svc)`` co-locate on the
        user's key; ``("group", gid)`` has its own key.
        """
        kind = cache_key[0]
        return f"g:{cache_key[1]}" if kind == "group" else f"u:{cache_key[1]}"

    def primary_shard_for(self, cache_key: tuple) -> str:
        return self.ring.primary(self._ring_key(cache_key))

    def owner_nodes_for(self, cache_key: tuple) -> list[str]:
        return [self.shards[n].node_id for n in self.ring.owners(self._ring_key(cache_key))]

    def user_owners(self, user_id: str) -> list[str]:
        return self.ring.owners(f"u:{user_id}")

    def group_owners(self, group_id: str) -> list[str]:
        return self.ring.owners(f"g:{group_id}")

    def epoch_of(self, name: str) -> int:
        """Per-shard mutation epoch (the DirectoryCache epoch source)."""
        return self.shards[name].service.epoch

    # -- in-process facade (ground truth for chaos/invariants) ---------------

    def _primary_service(self, ring_key: str) -> SyDDirectoryService:
        return self.shards[self.ring.primary(ring_key)].service

    @property
    def epoch(self) -> int:
        """Total mutation count across shards (diagnostics)."""
        return sum(shard.service.epoch for shard in self.shards.values())

    def lookup_user(self, user_id: str) -> dict[str, Any]:
        return self._primary_service(f"u:{user_id}").lookup_user(user_id)

    def lookup_service(self, user_id: str, service: str) -> dict[str, Any]:
        return self._primary_service(f"u:{user_id}").lookup_service(user_id, service)

    def group_members(self, group_id: str) -> list[str]:
        return self._primary_service(f"g:{group_id}").group_members(group_id)

    def list_users(self) -> list[str]:
        seen: set[str] = set()
        for shard in self.shard_list():
            seen.update(shard.service.list_users())
        return sorted(seen)

    def set_proxy(self, user_id: str, proxy_node: str | None) -> None:
        # Mutations apply at every owner so replicas never diverge.
        for name in self.user_owners(user_id):
            self.shards[name].service.set_proxy(user_id, proxy_node)

    def set_online(self, user_id: str, online: bool) -> None:
        for name in self.user_owners(user_id):
            self.shards[name].service.set_online(user_id, online)

    # -- anti-entropy ---------------------------------------------------------

    def repair_shard(self, name: str) -> int:
        """Rebuild a restarted shard's records from its live co-owners.

        The co-owners that stayed up are authoritative: the shard's
        contents are dropped and every key it owns is re-copied from the
        first co-owner holding it. A no-op when R == 1 (no co-owners —
        the shard's own disk is all there is). Returns records restored.
        """
        if self.ring.replicas < 2 or len(self.shards) < 2:
            return 0
        shard = self.shards[name]
        store = shard.service.store
        changed = (
            store.delete("users", None)
            + store.delete("services", None)
            + store.delete("groups", None)
        )
        restored = 0
        for user_id, (row, service_rows) in sorted(self._user_bundles(skip=name).items()):
            if name in self.user_owners(user_id):
                store.insert("users", dict(row))
                for service_row in service_rows:
                    store.insert("services", dict(service_row))
                restored += 1
        for group_id, row in sorted(self._group_rows(skip=name).items()):
            if name in self.group_owners(group_id):
                store.insert("groups", dict(row))
                restored += 1
        if changed or restored:
            shard.service._bump()
        if self._metrics is not None:
            self._metrics.inc(CONTROL, "dir.shard_repairs")
            self._metrics.inc(CONTROL, "dir.records_repaired", restored)
        return restored

    # -- rebalancing ----------------------------------------------------------

    def add_shard(self) -> str:
        """Spawn a shard and migrate its share of keys onto it."""
        name = self._spawn_shard()
        self._rebalance(self.ring.with_shard(name))
        return name

    def remove_shard(self, name: str | None = None) -> str:
        """Drain a shard's keys to the surviving owners, then retire it."""
        name = name or self.newest_shard()
        if name not in self.shards:
            raise ReproError(f"no directory shard {name!r}")
        if len(self.shards) == 1:
            raise ReproError("cannot remove the last directory shard")
        self._rebalance(self.ring.without_shard(name))
        shard = self.shards.pop(name)
        self.transport.unregister(shard.node_id)
        return name

    def _phase(self, phase: str) -> None:
        if self.phase_hook is not None:
            self.phase_hook(phase)

    def _user_bundles(self, skip: str | None = None) -> dict[str, tuple[dict, list[dict]]]:
        """Canonical ``user_id -> (user row, service rows)`` across shards.

        The canonical copy comes from the first *current* ring owner that
        holds the record (falling back to any holder), so a replica that
        missed a write never shadows the primary.
        """
        holders: dict[str, list[str]] = {}
        for shard in self.shard_list():
            if shard.name == skip:
                continue
            for row in shard.service.store.select("users"):
                holders.setdefault(row["user_id"], []).append(shard.name)
        bundles: dict[str, tuple[dict, list[dict]]] = {}
        for user_id, names in holders.items():
            ranked = [n for n in self.ring.owners(f"u:{user_id}") if n in names] or names
            store = self.shards[ranked[0]].service.store
            bundles[user_id] = (
                store.get("users", user_id),
                store.select("services", where("user_id") == user_id),
            )
        return bundles

    def _group_rows(self, skip: str | None = None) -> dict[str, dict]:
        holders: dict[str, list[str]] = {}
        for shard in self.shard_list():
            if shard.name == skip:
                continue
            for row in shard.service.store.select("groups"):
                holders.setdefault(row["group_id"], []).append(shard.name)
        rows: dict[str, dict] = {}
        for group_id, names in holders.items():
            ranked = [n for n in self.ring.owners(f"g:{group_id}") if n in names] or names
            rows[group_id] = self.shards[ranked[0]].service.store.get("groups", group_id)
        return rows

    def _rebalance(self, new_ring: HashRing) -> int:
        """Three-phase epoch-fenced migration onto ``new_ring``."""
        touched: set[str] = set()
        moved = 0
        users = self._user_bundles()
        groups = self._group_rows()

        # Phase 1 — copy: records reach their new owners; the old ring
        # (self.ring) keeps serving every lookup meanwhile.
        for user_id in sorted(users):
            row, service_rows = users[user_id]
            for name in new_ring.owners(f"u:{user_id}"):
                store = self.shards[name].service.store
                if store.get("users", user_id) is None:
                    store.insert("users", dict(row))
                    for service_row in service_rows:
                        store.insert("services", dict(service_row))
                    touched.add(name)
                    moved += 1
        for group_id in sorted(groups):
            for name in new_ring.owners(f"g:{group_id}"):
                store = self.shards[name].service.store
                if store.get("groups", group_id) is None:
                    store.insert("groups", dict(groups[group_id]))
                    touched.add(name)
                    moved += 1
        self._phase("copy")

        # Phase 2 — publish: the new ring and topology version become
        # visible atomically; clients now route to the new owners, which
        # already hold every record.
        self.ring = new_ring
        self.version += 1
        self._phase("publish")

        # Phase 3 — prune: old owners drop records they no longer own.
        for shard in self.shard_list():
            store = shard.service.store
            for row in list(store.select("users")):
                if shard.name not in new_ring.owners(f"u:{row['user_id']}"):
                    store.delete("users", where("user_id") == row["user_id"])
                    store.delete("services", where("user_id") == row["user_id"])
                    touched.add(shard.name)
            for row in list(store.select("groups")):
                if shard.name not in new_ring.owners(f"g:{row['group_id']}"):
                    store.delete("groups", where("group_id") == row["group_id"])
                    touched.add(shard.name)
        # Every shard whose contents changed bumps its epoch, flushing
        # exactly the cache buckets that could now be stale.
        for name in sorted(touched):
            if name in self.shards:
                self.shards[name].service._bump()
        self._phase("prune")

        self.keys_moved += moved
        if self._metrics is not None:
            self._metrics.inc(CONTROL, "dir.rebalances")
            self._metrics.inc(CONTROL, "dir.keys_moved", moved)
            self._metrics.set_gauge(CONTROL, "dir.topology_version", self.version)
        return moved


class ShardedDirectoryClient(DirectoryClient):
    """DirectoryClient that routes every verb to its key's shard owners.

    Reads try owners in ring order, failing over past unreachable or
    dropped replicas (each attempt under the node's retry policy).
    Writes fan out to all R owners in one scatter-gather batch; the
    primary's outcome decides, with replica outcomes adopted only when
    the primary is unreachable. ``lookup_users_many`` /
    ``lookup_services_many`` stay single-batch: their legs target each
    key's primary shard, so one ``rpc_many`` carries per-shard
    sub-batches.
    """

    def __init__(self, node_id: str, transport, topology: ShardedDirectory):
        super().__init__(node_id, transport, directory_node=topology.node_prefix)
        self.topology = topology
        #: optional :class:`~repro.net.health.HealthMonitor`, wired by the
        #: world: reads then try replica owners in suspicion order (stable
        #: rank — ring order is preserved among equally-healthy shards)
        self.health = None
        #: hedged reads: with a health monitor installed, a read launches
        #: a second leg at the next ring owner after a suspicion-scaled
        #: delay, first reply wins (see :meth:`Transport.rpc_hedged`)
        self.hedge = False

    # -- plumbing -------------------------------------------------------------

    def _ranked(self, owner_nodes: list[str]) -> list[str]:
        """Owners in suspicion order (ring order when health is off)."""
        if self.health is None:
            return owner_nodes
        return self.health.rank(owner_nodes)

    def _read(self, owner_nodes: list[str], method: str, *args: Any) -> Any:
        owner_nodes = self._ranked(owner_nodes)
        if self.hedge and self.health is not None and len(owner_nodes) >= 2:
            # Hedged first attempt: primary leg now, second leg at the
            # next-ranked owner after a suspicion-scaled delay, first
            # reply wins. Failures fall through to the plain sequential
            # failover below (which retries under the node's policy).
            delay = self.health.hedge_delay(owner_nodes[0], HEDGE_BASE)
            try:
                reply = self.transport.rpc_hedged(
                    self.node_id,
                    owner_nodes[0],
                    owner_nodes[1],
                    invoke.KIND,
                    invoke.request(DIRECTORY_OBJECT, method, args),
                    delay,
                )
            except (MessageDropped, UnreachableError):
                pass
            else:
                return invoke.result(reply)
        last: Exception | None = None
        for node in owner_nodes:
            try:
                return self._call_at(node, method, *args)
            except (MessageDropped, UnreachableError) as exc:
                last = exc
        raise last  # every owner unreachable

    def _read_owned(self, key: tuple, method: str, *args: Any) -> Any:
        """Read from ``key``'s owners, resolved only on a cache miss."""
        return self._read(self.topology.owner_nodes_for(key), method, *args)

    def _leg_node(self, key: tuple) -> str:
        return self.topology.owner_nodes_for(key)[0]

    def _failover(self, key: tuple, error: Exception, method: str, args: tuple) -> Any:
        replicas = self.topology.owner_nodes_for(key)[1:]
        if not replicas:
            raise error
        return self._read(replicas, method, *args)

    def _fan_out(self, nodes: list[str], method: str, *args: Any, **kwargs: Any) -> list:
        """One scatter-gather batch invoking ``method`` at every node."""
        legs = [
            (node, invoke.request(DIRECTORY_OBJECT, method, args, kwargs)) for node in nodes
        ]
        return invoke.call_many(self.transport, self.node_id, legs, self.retry_policy)

    def _write(self, owner_nodes: list[str], method: str, *args: Any, **kwargs: Any) -> Any:
        outcomes = self._fan_out(owner_nodes, method, *args, **kwargs)
        primary = outcomes[0]
        if primary.ok:
            return invoke.result(primary.value)
        if isinstance(primary.error, (MessageDropped, UnreachableError)):
            # Primary down: the first replica that answered decides —
            # repair_shard reconciles the primary when it returns.
            for outcome in outcomes[1:]:
                if outcome.ok:
                    return invoke.result(outcome.value)
                if not isinstance(outcome.error, (MessageDropped, UnreachableError)):
                    raise outcome.error
        raise primary.error

    def _union(self, method: str) -> list[str]:
        merged: set[str] = set()
        for outcome in self._fan_out(self.topology.all_shard_nodes(), method):
            if outcome.ok:
                merged.update(invoke.result(outcome.value) or [])
            elif not isinstance(outcome.error, (MessageDropped, UnreachableError)):
                raise outcome.error
            # Unreachable shards are tolerated: replication means their
            # keys are also listed by a surviving owner.
        return sorted(merged)

    def _user_nodes(self, user_id: str) -> list[str]:
        return self.topology.owner_nodes_for(("user", user_id))

    def _group_nodes(self, group_id: str) -> list[str]:
        return self.topology.owner_nodes_for(("group", group_id))

    # -- verbs ----------------------------------------------------------------

    def publish_user(self, user_id, node_id, proxy_node=None, info=None):
        return self._write(
            self._user_nodes(user_id),
            "publish_user",
            user_id,
            node_id,
            proxy_node=proxy_node,
            info=info,
        )

    def lookup_user(self, user_id):
        key = ("user", user_id)
        return self._cached(key, self._read_owned, key, "lookup_user", user_id)

    def list_users(self):
        return self._union("list_users")

    def set_online(self, user_id, online):
        return self._write(self._user_nodes(user_id), "set_online", user_id, online)

    def set_proxy(self, user_id, proxy_node):
        return self._write(self._user_nodes(user_id), "set_proxy", user_id, proxy_node)

    def unpublish_user(self, user_id):
        return self._write(self._user_nodes(user_id), "unpublish_user", user_id)

    def register_service(self, user_id, service, object_name, methods):
        return self._write(
            self._user_nodes(user_id),
            "register_service",
            user_id,
            service,
            object_name,
            methods,
        )

    def lookup_service(self, user_id, service):
        key = ("service", user_id, service)
        return self._cached(key, self._read_owned, key, "lookup_service", user_id, service)

    def services_of(self, user_id):
        return self._read(self._user_nodes(user_id), "services_of", user_id)

    def unregister_service(self, user_id, service):
        return self._write(
            self._user_nodes(user_id), "unregister_service", user_id, service
        )

    def form_group(self, group_id, owner, members):
        # Members live on their own shards; validate them there, then ask
        # the group's shard to store without re-checking (it can't).
        for _record, error in self.lookup_users_many(members):
            if error is not None:
                raise error
        return self._write(
            self._group_nodes(group_id),
            "form_group",
            group_id,
            owner,
            members,
            validate_members=False,
        )

    def group_members(self, group_id):
        key = ("group", group_id)
        return self._cached(key, self._read_owned, key, "group_members", group_id)

    def add_member(self, group_id, user_id):
        self.lookup_user(user_id)  # raises UnknownUserError on their shard
        return self._write(
            self._group_nodes(group_id),
            "add_member",
            group_id,
            user_id,
            validate_member=False,
        )

    def remove_member(self, group_id, user_id):
        return self._write(self._group_nodes(group_id), "remove_member", group_id, user_id)

    def disband_group(self, group_id):
        return self._write(self._group_nodes(group_id), "disband_group", group_id)

    def list_groups(self):
        return self._union("list_groups")

    def directory_epoch(self):
        """Sum of per-shard epochs (the fleet-wide mutation count)."""
        total = 0
        for outcome in self._fan_out(self.topology.all_shard_nodes(), "directory_epoch"):
            if not outcome.ok:
                raise outcome.error
            total += invoke.result(outcome.value) or 0
        return total
