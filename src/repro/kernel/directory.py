"""SyDDirectory — user/group/service publishing, management and lookup.

Paper §3.1(a): "Provides user/group/service publishing, management, and
lookup services to SyD users and device objects. Also supports
intelligent proxy maintenance for users/devices."

The directory is itself a :class:`SyDDeviceObject` (``_syd_directory``)
published on a dedicated server node, and — dogfooding the paper's own
architecture — keeps its records in a :class:`RelationalStore`. Other
nodes talk to it through :class:`DirectoryClient`, a typed stub over the
ordinary remote-invocation path.

Two hot-path optimizations live here:

* batched lookups — ``lookup_users_many`` / ``lookup_services_many``
  resolve a whole group through one scatter-gather batch
  (:meth:`Transport.rpc_many`), so group resolution costs ~one round
  trip of virtual time instead of one per member;
* :class:`DirectoryCache` — an opt-in client-side cache keyed by the
  directory's *epoch*, a version counter the service bumps on every
  mutation (publish, proxy change, unregister, group edits). A stale
  epoch flushes the whole cache, so a cached ``lookup_user`` observes a
  proxy reassignment or an unregister on the very next call after the
  bump.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.datastore.predicate import where
from repro.datastore.schema import Column, ColumnType, schema
from repro.datastore.store import RelationalStore
from repro.device.object import SyDDeviceObject, exported
from repro.kernel import invoke
from repro.util.errors import (
    DuplicateRegistrationError,
    MessageDropped,
    ReproError,
    UnknownGroupError,
    UnknownServiceError,
    UnknownUserError,
    UnreachableError,
)

DIRECTORY_OBJECT = "_syd_directory"
DEFAULT_DIRECTORY_NODE = "syd-directory"


class SyDDirectoryService(SyDDeviceObject):
    """Server side of the directory (runs on the directory node)."""

    def __init__(self, store: RelationalStore | None = None):
        store = store or RelationalStore("directory")
        super().__init__(DIRECTORY_OBJECT, store)
        #: version counter bumped on every mutation; client caches compare
        #: against it to decide whether their entries are still valid.
        self.epoch = 0
        store.create_table(
            "users",
            schema(
                "user_id",
                user_id=ColumnType.STR,
                node_id=ColumnType.STR,
                proxy_node=Column("", ColumnType.STR, nullable=True),
                online=Column("", ColumnType.BOOL, default=True),
                info=Column("", ColumnType.JSON, nullable=True),
            ),
        )
        store.create_table(
            "services",
            schema(
                "service_key",  # "<user_id>/<service>"
                service_key=ColumnType.STR,
                user_id=ColumnType.STR,
                service=ColumnType.STR,
                object_name=ColumnType.STR,
                methods=ColumnType.JSON,
            ),
        )
        store.create_index("services", "user_id")
        store.create_table(
            "groups",
            schema(
                "group_id",
                group_id=ColumnType.STR,
                owner=ColumnType.STR,
                members=ColumnType.JSON,
            ),
        )

    def _bump(self) -> None:
        """Invalidate every client cache: the records just changed."""
        self.epoch += 1

    @exported
    def directory_epoch(self) -> int:
        """Current mutation epoch (for cache validation / diagnostics)."""
        return self.epoch

    # -- users ---------------------------------------------------------------

    @exported
    def publish_user(
        self,
        user_id: str,
        node_id: str,
        proxy_node: str | None = None,
        info: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Register a user and the node their device object lives on."""
        if self.store.get("users", user_id) is not None:
            raise DuplicateRegistrationError(f"user {user_id!r} already published")
        self._bump()
        return self.store.insert(
            "users",
            {
                "user_id": user_id,
                "node_id": node_id,
                "proxy_node": proxy_node,
                "info": info,
            },
        )

    @exported
    def lookup_user(self, user_id: str) -> dict[str, Any]:
        """Full user record: node, proxy, online flag."""
        row = self.store.get("users", user_id)
        if row is None:
            raise UnknownUserError(f"user {user_id!r} is not published")
        return row

    @exported
    def list_users(self) -> list[str]:
        """All published user ids."""
        return [r["user_id"] for r in self.store.select("users")]

    @exported
    def set_online(self, user_id: str, online: bool) -> None:
        """Mark a user's device up or down (proxy failover hint)."""
        self._bump()
        if self.store.update("users", where("user_id") == user_id, {"online": online}) == 0:
            raise UnknownUserError(f"user {user_id!r} is not published")

    @exported
    def set_proxy(self, user_id: str, proxy_node: str | None) -> None:
        """Bind (or clear) a user's proxy node."""
        self._bump()
        if (
            self.store.update(
                "users", where("user_id") == user_id, {"proxy_node": proxy_node}
            )
            == 0
        ):
            raise UnknownUserError(f"user {user_id!r} is not published")

    @exported
    def unpublish_user(self, user_id: str) -> None:
        """Remove a user and their service registrations."""
        self._bump()
        if self.store.delete("users", where("user_id") == user_id) == 0:
            raise UnknownUserError(f"user {user_id!r} is not published")
        self.store.delete("services", where("user_id") == user_id)

    # -- services ------------------------------------------------------------

    @exported
    def register_service(
        self, user_id: str, service: str, object_name: str, methods: list[str]
    ) -> None:
        """Publish that ``user_id`` offers ``service`` via ``object_name``."""
        if self.store.get("users", user_id) is None:
            raise UnknownUserError(f"user {user_id!r} is not published")
        key = f"{user_id}/{service}"
        if self.store.get("services", key) is not None:
            raise DuplicateRegistrationError(f"service {key!r} already registered")
        self._bump()
        self.store.insert(
            "services",
            {
                "service_key": key,
                "user_id": user_id,
                "service": service,
                "object_name": object_name,
                "methods": list(methods),
            },
        )

    @exported
    def lookup_service(self, user_id: str, service: str) -> dict[str, Any]:
        """Resolve a user's service to its object name and methods."""
        row = self.store.get("services", f"{user_id}/{service}")
        if row is None:
            raise UnknownServiceError(f"user {user_id!r} offers no service {service!r}")
        return row

    @exported
    def services_of(self, user_id: str) -> list[dict[str, Any]]:
        """All services a user has registered."""
        return self.store.select("services", where("user_id") == user_id)

    @exported
    def unregister_service(self, user_id: str, service: str) -> bool:
        """Remove one service registration; returns True when it existed."""
        self._bump()
        return (
            self.store.delete("services", where("service_key") == f"{user_id}/{service}")
            > 0
        )

    # -- groups ----------------------------------------------------------------

    @exported
    def form_group(
        self,
        group_id: str,
        owner: str,
        members: list[str],
        validate_members: bool = True,
    ) -> None:
        """Create a dynamic group of users (paper: committees, departments).

        ``validate_members=False`` skips the member-existence check: the
        sharded client pre-validates members against their *own* shards
        (this shard only holds users co-located with the group key).
        """
        if self.store.get("groups", group_id) is not None:
            raise DuplicateRegistrationError(f"group {group_id!r} already exists")
        if validate_members:
            for member in members:
                if self.store.get("users", member) is None:
                    raise UnknownUserError(f"group member {member!r} is not published")
        self._bump()
        self.store.insert(
            "groups", {"group_id": group_id, "owner": owner, "members": list(members)}
        )

    @exported
    def group_members(self, group_id: str) -> list[str]:
        """Member user ids of a group."""
        row = self.store.get("groups", group_id)
        if row is None:
            raise UnknownGroupError(f"no group {group_id!r}")
        return list(row["members"])

    @exported
    def add_member(self, group_id: str, user_id: str, validate_member: bool = True) -> None:
        """Add a user to a group (idempotent).

        ``validate_member=False``: same contract as ``form_group`` — the
        sharded client has already checked the user on their own shard.
        """
        members = self.group_members(group_id)
        if validate_member and self.store.get("users", user_id) is None:
            raise UnknownUserError(f"user {user_id!r} is not published")
        if user_id not in members:
            members.append(user_id)
            self._bump()
            self.store.update(
                "groups", where("group_id") == group_id, {"members": members}
            )

    @exported
    def remove_member(self, group_id: str, user_id: str) -> None:
        """Drop a user from a group."""
        members = self.group_members(group_id)
        if user_id in members:
            members.remove(user_id)
            self._bump()
            self.store.update(
                "groups", where("group_id") == group_id, {"members": members}
            )

    @exported
    def disband_group(self, group_id: str) -> None:
        """Delete a group."""
        self._bump()
        if self.store.delete("groups", where("group_id") == group_id) == 0:
            raise UnknownGroupError(f"no group {group_id!r}")

    @exported
    def list_groups(self) -> list[str]:
        """All group ids."""
        return [r["group_id"] for r in self.store.select("groups")]


#: Sentinel distinguishing "no cached entry" from a cached ``None``.
_MISS = object()


#: bucket id used when the cache fronts a single (unsharded) directory
_SINGLE = ""


class DirectoryCache:
    """Client-side cache of directory lookups with epoch invalidation.

    ``epoch_source`` returns the directory's current mutation epoch; the
    simulated world wires it to the in-process service counter, modeling
    the out-of-band invalidation channel (lease/push multicast) a real
    deployment would use — validation therefore costs no simulated
    messages.

    Entries live in per-shard *buckets*. ``shard_of`` maps a cache key to
    the shard that owns it (``None`` — the default — keeps every entry in
    one bucket, fronting an unsharded directory). A stale epoch flushes
    only the affected shard's bucket: a proxy reassignment on shard A is
    visible on the very next lookup of an A-owned key, while shard B's
    cached entries stay live. With ``shard_of`` set, ``epoch_source`` is
    called with the shard id; without it, with no arguments.
    """

    def __init__(
        self,
        epoch_source: Callable[..., int],
        metrics=None,
        metrics_node: str = "",
        shard_of: Callable[[tuple], str] | None = None,
    ):
        self.epoch_source = epoch_source
        self.shard_of = shard_of
        #: shard bucket -> {cache key -> value}
        self._entries: dict[str, dict[tuple, Any]] = {}
        #: shard bucket -> epoch its entries were filled at
        self._epochs: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        #: optional MetricsRegistry mirror (dir.cache_hits / _misses /
        #: _flushes under the owning node)
        self._metrics = metrics
        self._metrics_node = metrics_node

    def _metric(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(self._metrics_node, name)

    @property
    def _filled_epoch(self) -> int | None:
        """Single-bucket fill epoch (unsharded diagnostics/back-compat)."""
        return self._epochs.get(_SINGLE)

    def filled_epochs(self) -> dict[str, int]:
        """Per-shard fill epochs (keyed ``""`` when unsharded)."""
        return dict(self._epochs)

    def _bucket_of(self, key: tuple) -> str:
        return self.shard_of(key) if self.shard_of is not None else _SINGLE

    def _validate(self, bucket: str) -> dict[tuple, Any]:
        current = (
            self.epoch_source(bucket)
            if self.shard_of is not None
            else self.epoch_source()
        )
        entries = self._entries.get(bucket)
        if entries is None:
            entries = self._entries[bucket] = {}
        if current != self._epochs.get(bucket):
            if entries:
                self.flushes += 1
                self._metric("dir.cache_flushes")
                entries.clear()
            self._epochs[bucket] = current
        return entries

    def get(self, key: tuple) -> Any:
        """Cached value for ``key``, or the ``_MISS`` sentinel."""
        entries = self._validate(self._bucket_of(key))
        if key in entries:
            self.hits += 1
            self._metric("dir.cache_hits")
            value = entries[key]
            # Rows are mutable dicts/lists; hand out copies so callers
            # cannot corrupt the cache.
            if isinstance(value, dict):
                return dict(value)
            if isinstance(value, list):
                return list(value)
            return value
        self.misses += 1
        self._metric("dir.cache_misses")
        return _MISS

    def put(self, key: tuple, value: Any) -> None:
        entries = self._validate(self._bucket_of(key))
        if isinstance(value, dict):
            value = dict(value)
        elif isinstance(value, list):
            value = list(value)
        entries[key] = value

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())


class DirectoryClient:
    """Client stub: typed methods over the remote-invocation path.

    Every method is one RPC to the directory node's ``_syd_directory``
    object; errors surface as the same typed exceptions the service
    raises (the transport marshals them). ``lookup_users_many`` /
    ``lookup_services_many`` resolve several records through one
    scatter-gather batch. An attached :class:`DirectoryCache` serves
    repeated lookups without any traffic until the directory epoch moves.
    """

    def __init__(self, node_id: str, transport, directory_node: str = DEFAULT_DIRECTORY_NODE):
        self.node_id = node_id
        self.transport = transport
        self.directory_node = directory_node
        self.cache: DirectoryCache | None = None
        #: optional retry/backoff for lookup traffic (installed alongside
        #: the engine's policy by ``SyDWorld.set_retry_policy``)
        self.retry_policy = None

    def attach_cache(self, cache: DirectoryCache) -> None:
        """Serve ``lookup_*`` / ``group_members`` reads from ``cache``."""
        self.cache = cache

    def _call_at(self, node: str, method: str, *args: Any, **kwargs: Any) -> Any:
        return invoke.call(
            self.transport,
            self.node_id,
            node,
            invoke.request(DIRECTORY_OBJECT, method, args, kwargs),
            self.retry_policy,
        )

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        return self._call_at(self.directory_node, method, *args, **kwargs)

    def _cached(self, key: tuple, read: Callable[..., Any], *args: Any) -> Any:
        """Cached value of ``key``, else ``read(*args)``, cached."""
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not _MISS:
                return hit
        value = read(*args)
        if self.cache is not None:
            self.cache.put(key, value)
        return value

    def _leg_node(self, key: tuple) -> str:
        """Node a batched lookup of ``key`` is sent to."""
        return self.directory_node

    def _failover(self, key: tuple, error: Exception, method: str, args: tuple) -> Any:
        """Value of a batched lookup whose leg failed with a transient ``error``."""
        raise error

    def _call_many(
        self, requests: list[tuple[tuple, str, tuple]]
    ) -> list[tuple[Any, Exception | None]]:
        """Resolve ``(cache_key, method, args)`` requests, batching misses.

        Returns one ``(value, error)`` pair per request. Cache hits cost
        nothing; all misses travel in a single ``rpc_many`` batch (~one
        round trip of virtual time), each leg to :meth:`_leg_node`; a leg
        that failed with a transient error gets one :meth:`_failover`.
        Errors are the same typed exceptions the sequential path raises.
        """
        results: list[tuple[Any, Exception | None]] = [(None, None)] * len(requests)
        miss_indexes: list[int] = []
        for i, (key, _method, _args) in enumerate(requests):
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not _MISS:
                    results[i] = (hit, None)
                    continue
            miss_indexes.append(i)
        if not miss_indexes:
            return results
        legs = [
            (
                self._leg_node(requests[i][0]),
                invoke.request(DIRECTORY_OBJECT, requests[i][1], requests[i][2]),
            )
            for i in miss_indexes
        ]
        outcomes = invoke.call_many(self.transport, self.node_id, legs, self.retry_policy)
        for i, outcome in zip(miss_indexes, outcomes):
            key, method, args = requests[i]
            if outcome.ok:
                value = invoke.result(outcome.value)
            elif isinstance(outcome.error, (MessageDropped, UnreachableError)):
                try:
                    value = self._failover(key, outcome.error, method, args)
                except ReproError as exc:
                    results[i] = (None, exc)
                    continue
            else:
                results[i] = (None, outcome.error)
                continue
            if self.cache is not None:
                self.cache.put(key, value)
            results[i] = (value, None)
        return results

    def lookup_users_many(self, user_ids) -> list[tuple[dict[str, Any] | None, Exception | None]]:
        """Batched ``lookup_user`` over many ids: one ``(record, error)`` each."""
        return self._call_many(
            [(("user", uid), "lookup_user", (uid,)) for uid in user_ids]
        )

    def lookup_services_many(self, pairs) -> list[tuple[dict[str, Any] | None, Exception | None]]:
        """Batched ``lookup_service`` over ``(user_id, service)`` pairs."""
        return self._call_many(
            [
                (("service", uid, svc), "lookup_service", (uid, svc))
                for uid, svc in pairs
            ]
        )

    def publish_user(self, user_id, node_id, proxy_node=None, info=None):
        return self._call("publish_user", user_id, node_id, proxy_node=proxy_node, info=info)

    def lookup_user(self, user_id):
        return self._cached(("user", user_id), self._call, "lookup_user", user_id)

    def list_users(self):
        return self._call("list_users")

    def set_online(self, user_id, online):
        return self._call("set_online", user_id, online)

    def set_proxy(self, user_id, proxy_node):
        return self._call("set_proxy", user_id, proxy_node)

    def unpublish_user(self, user_id):
        return self._call("unpublish_user", user_id)

    def register_service(self, user_id, service, object_name, methods):
        return self._call("register_service", user_id, service, object_name, methods)

    def lookup_service(self, user_id, service):
        return self._cached(
            ("service", user_id, service), self._call, "lookup_service", user_id, service
        )

    def services_of(self, user_id):
        return self._call("services_of", user_id)

    def unregister_service(self, user_id, service):
        return self._call("unregister_service", user_id, service)

    def form_group(self, group_id, owner, members):
        return self._call("form_group", group_id, owner, members)

    def group_members(self, group_id):
        return self._cached(("group", group_id), self._call, "group_members", group_id)

    def add_member(self, group_id, user_id):
        return self._call("add_member", group_id, user_id)

    def remove_member(self, group_id, user_id):
        return self._call("remove_member", group_id, user_id)

    def disband_group(self, group_id):
        return self._call("disband_group", group_id)

    def list_groups(self):
        return self._call("list_groups")

    def directory_epoch(self):
        return self._call("directory_epoch")
