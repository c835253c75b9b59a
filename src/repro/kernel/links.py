"""SyDLinks — the link database and the six operations of paper §4.2.

Each node runs one :class:`SyDLinks` instance owning three tables in the
node's *own* data store (op 1, "link database creation"):

* ``SyD_Links`` — one row per coordination link this user owns.
* ``SyD_WaitingLink`` — tentative links waiting on a permanent link,
  promoted by priority when the blocking link is deleted (ops 3–4).
* ``SyD_LinkMethod`` — source-method → destination-method mappings fired
  after local method executions (op 5).

Cross-node link operations (installing a back link at a peer, cascading a
delete, promoting a remote waiting link) travel over the ordinary
invocation path through :class:`SyDLinksService`, a kernel device object
(``_syd_links``) published on every node — exactly how the prototype
invoked ``SyD_deleteLink()`` "on B via SyDEngine".
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.datastore.predicate import where
from repro.datastore.schema import Column, ColumnType, schema
from repro.datastore.store import DataStore
from repro.device.object import SyDDeviceObject, exported
from repro.kernel.engine import CallSpec, SyDEngine
from repro.kernel.linktypes import (
    Link,
    LinkRef,
    LinkSubtype,
    LinkType,
    parse_constraint,
)
from repro.txn.coordinator import Constraint
from repro.util.clock import VirtualClock
from repro.util.errors import NetworkError, ReproError, UnknownLinkError
from repro.util.events import EventBus
from repro.util.idgen import IdGenerator
from repro.util.trace import maybe_span

LINKS_TABLE = "SyD_Links"
WAITING_TABLE = "SyD_WaitingLink"
LINK_METHOD_TABLE = "SyD_LinkMethod"
LINKS_SERVICE = "_syd_links"


def _links_schema():
    return schema(
        "link_id",
        link_id=ColumnType.STR,
        owner=ColumnType.STR,
        ltype=ColumnType.STR,
        subtype=ColumnType.STR,
        source_entity=Column("", ColumnType.JSON, nullable=True),
        refs=ColumnType.JSON,
        constraint=Column("", ColumnType.STR, nullable=True),
        priority=ColumnType.INT,
        created_at=ColumnType.FLOAT,
        expires_at=Column("", ColumnType.FLOAT, nullable=True),
        waiting_on=Column("", ColumnType.STR, nullable=True),
        context=Column("", ColumnType.JSON, nullable=True),
    )


def _waiting_schema():
    return schema(
        "waiting_id",
        waiting_id=ColumnType.STR,
        blocking_link=ColumnType.STR,
        waiting_owner=ColumnType.STR,
        waiting_link=ColumnType.STR,
        priority=ColumnType.INT,
        group_id=Column("", ColumnType.STR, nullable=True),
        created_at=ColumnType.FLOAT,
    )


def _link_method_schema():
    return schema(
        "mapping_id",
        mapping_id=ColumnType.STR,
        source_object=ColumnType.STR,
        source_method=ColumnType.STR,
        dest_user=ColumnType.STR,
        dest_service=ColumnType.STR,
        dest_method=ColumnType.STR,
    )


class SyDLinks:
    """Per-node link manager (one per user/device)."""

    def __init__(
        self,
        user: str,
        store: DataStore,
        engine: SyDEngine,
        clock: VirtualClock,
        bus: EventBus | None = None,
    ):
        self.user = user
        self.store = store
        self.engine = engine
        self.clock = clock
        self.bus = bus or EventBus()
        self._ids = IdGenerator()
        # Counters for experiments.
        self.created = 0
        self.deleted = 0
        self.promoted = 0
        self.expired = 0
        self.cascades_received = 0
        #: (store, links version) the link view was decoded at
        self._links_key: tuple[DataStore, int] | None = None
        self._links_view: list[Link] = []
        self._ensure_tables()

    @property
    def _tracer(self):
        return getattr(self.engine.transport, "tracer", None)

    # -- op 1: link database creation ------------------------------------------

    def _ensure_tables(self) -> None:
        if not self.store.has_table(LINKS_TABLE):
            self.store.create_table(LINKS_TABLE, _links_schema())
        if not self.store.has_table(WAITING_TABLE):
            self.store.create_table(WAITING_TABLE, _waiting_schema())
        if not self.store.has_table(LINK_METHOD_TABLE):
            self.store.create_table(LINK_METHOD_TABLE, _link_method_schema())

    # -- op 2: link creation ---------------------------------------------------------

    def create_link(
        self,
        ltype: LinkType,
        refs: list[LinkRef],
        *,
        subtype: LinkSubtype = LinkSubtype.PERMANENT,
        source_entity: Any = None,
        constraint: Constraint | None = None,
        priority: int = 0,
        ttl: float | None = None,
        waiting_on: str | None = None,
        waiting_group: str | None = None,
        context: dict[str, Any] | None = None,
        link_id: str | None = None,
    ) -> Link:
        """Create and persist a link owned by this user.

        When ``waiting_on`` names a *local* permanent link, a waiting-
        table entry is recorded so that deleting the blocking link
        promotes this one (op 3). ``ttl`` sets the expiry relative to the
        current virtual time (op 6).
        """
        now = self.clock.now()
        link = Link(
            link_id=link_id or self._ids.next(f"link-{self.user}"),
            owner=self.user,
            ltype=ltype,
            subtype=subtype,
            source_entity=source_entity,
            refs=tuple(refs),
            constraint=constraint,
            priority=priority,
            created_at=now,
            expires_at=(now + ttl) if ttl is not None else None,
            waiting_on=waiting_on,
            context=dict(context or {}),
        )
        self.store.insert(LINKS_TABLE, link.to_row())
        self.created += 1
        if waiting_on is not None:
            self.register_waiting(
                blocking_link=waiting_on,
                waiting_owner=self.user,
                waiting_link=link.link_id,
                priority=priority,
                group_id=waiting_group,
            )
        self.bus.publish("link.created", link=link)
        return link

    def register_waiting(
        self,
        blocking_link: str,
        waiting_owner: str,
        waiting_link: str,
        priority: int,
        group_id: str | None = None,
    ) -> str:
        """Queue a (possibly remote) tentative link behind a local link."""
        waiting_id = self._ids.next(f"wait-{self.user}")
        self.store.insert(
            WAITING_TABLE,
            {
                "waiting_id": waiting_id,
                "blocking_link": blocking_link,
                "waiting_owner": waiting_owner,
                "waiting_link": waiting_link,
                "priority": priority,
                "group_id": group_id,
                "created_at": self.clock.now(),
            },
        )
        return waiting_id

    # -- reads -----------------------------------------------------------------------

    def get_link(self, link_id: str) -> Link:
        """Fetch one owned link (raises :class:`UnknownLinkError`)."""
        row = self.store.get(LINKS_TABLE, link_id)
        if row is None:
            raise UnknownLinkError(f"{self.user} owns no link {link_id!r}")
        return Link.from_row(row)

    def has_link(self, link_id: str) -> bool:
        return self.store.get(LINKS_TABLE, link_id) is not None

    def all_links(self) -> list[Link]:
        """Every owned link, in link-id order.

        Served from a decoded view that is refreshed only when the links
        table's :meth:`~repro.datastore.store.DataStore.version` moves. Each
        call returns a fresh list of the view's (frozen) links.
        """
        key = (self.store, self.store.version(LINKS_TABLE))
        if self._links_key != key:
            self._links_view = [Link.from_row(r) for r in self.store.select(LINKS_TABLE)]
            self._links_key = key
        return list(self._links_view)

    def links_by_context(self, key: str, value: Any) -> list[Link]:
        """Owned links whose ``context[key] == value``."""
        return [ln for ln in self.all_links() if ln.context.get(key) == value]

    def links_for_entity(self, entity: Any) -> list[Link]:
        """Owned links triggered by changes of ``entity``."""
        return [ln for ln in self.all_links() if ln.source_entity == entity]

    def waiting_entries(self, blocking_link: str | None = None) -> list[dict[str, Any]]:
        pred = where("blocking_link") == blocking_link if blocking_link else None
        return self.store.select(WAITING_TABLE, pred)

    # -- op 3: automatic tentative -> permanent conversion ----------------------------

    def promote_link(self, link_id: str) -> Link:
        """Flip a local tentative link to permanent and announce it."""
        with maybe_span(self._tracer, "links.promote", self.user, link=link_id):
            link = self.get_link(link_id)
            promoted = link.promoted()
            self.store.update(
                LINKS_TABLE,
                where("link_id") == link_id,
                {"subtype": promoted.subtype.value, "waiting_on": None},
            )
            # Drop any waiting entries *for* this link (it no longer waits).
            self.store.delete(WAITING_TABLE, where("waiting_link") == link_id)
            self.promoted += 1
            self.bus.publish("link.promoted", link=promoted)
            return promoted

    def _promote_waiters(self, blocking_link: str) -> list[str]:
        """Promote the highest-priority waiting entry/group (op 3–4).

        "Once L0 is deleted then the waiting link with the highest
        priority is converted to a permanent link ... deletion of the
        permanent link triggers automatic conversion of all links in the
        group with highest priority."
        """
        entries = self.waiting_entries(blocking_link)
        if not entries:
            return []
        top = max(e["priority"] for e in entries)
        winners = [e for e in entries if e["priority"] == top]
        # If the best entry belongs to a group, promote the whole group.
        group_ids = {e["group_id"] for e in winners if e["group_id"]}
        if group_ids:
            winners = [
                e
                for e in entries
                if e["group_id"] in group_ids or (e["priority"] == top and not e["group_id"])
            ]
        promoted: dict[str, bool] = {}
        remote_entries = []
        for entry in winners:
            self.store.delete(WAITING_TABLE, where("waiting_id") == entry["waiting_id"])
            if entry["waiting_owner"] == self.user:
                try:
                    self.promote_link(entry["waiting_link"])
                    promoted[entry["waiting_id"]] = True
                except UnknownLinkError:
                    # Waiter vanished; its entry is dropped either way.
                    continue
            else:
                remote_entries.append(entry)
        # All remote promotions travel as one scatter-gather wave.
        outcomes = self.engine.execute_calls(
            [
                CallSpec(e["waiting_owner"], LINKS_SERVICE, "promote_remote", (e["waiting_link"],))
                for e in remote_entries
            ]
        )
        for entry, outcome in zip(remote_entries, outcomes):
            if outcome.ok:
                promoted[entry["waiting_id"]] = True
            elif not isinstance(outcome.error, (NetworkError, UnknownLinkError)):
                raise outcome.error
        return [e["waiting_link"] for e in winners if promoted.get(e["waiting_id"])]

    # -- op 4: link deletion (with cascading) -------------------------------------------

    def delete_link(
        self,
        link_id: str,
        *,
        cascade: bool = True,
        _visited: list[str] | None = None,
    ) -> list[str]:
        """Delete a link per §4.2 op 4 / §4.4.

        1. Promote the highest-priority link(s) waiting on it.
        2. Delete the local row.
        3. Cascade: invoke deletion of logically-associated links (same
           ``cascade_id``) at every referenced peer via the SyDEngine.

        Returns the waiting-link ids promoted locally as a side effect.
        ``_visited`` carries the users already processed so that mutual
        references terminate.
        """
        link = self.get_link(link_id)
        visited = list(_visited or [])
        if self.user not in visited:
            visited.append(self.user)

        with maybe_span(
            self._tracer, "links.delete", self.user, link=link_id, cascade=cascade
        ) as span:
            return self._delete_link_traced(link, link_id, cascade, visited, span)

    def _delete_link_traced(
        self, link: Link, link_id: str, cascade: bool, visited: list[str], span
    ) -> list[str]:
        promoted = self._promote_waiters(link_id)
        self.store.delete(LINKS_TABLE, where("link_id") == link_id)
        # This link no longer waits on anything (if it was tentative).
        self.store.delete(WAITING_TABLE, where("waiting_link") == link_id)
        self.deleted += 1
        self.bus.publish("link.deleted", link=link)

        if cascade:
            # One concurrent wave to every referenced peer. All legs
            # carry the same visited list (including every peer of this
            # wave), matching the concurrent semantics: peers notified
            # together must not re-cascade to each other.
            peers: list[str] = []
            for ref in link.refs:
                if ref.user in visited or ref.user == self.user or ref.user in peers:
                    continue
                peers.append(ref.user)
            visited.extend(peers)
            span.set(peers=len(peers), promoted=len(promoted))
            outcomes = self.engine.execute_calls(
                [
                    CallSpec(peer, LINKS_SERVICE, "cascade_delete", (link.cascade_id, visited))
                    for peer in peers
                ]
            )
            for outcome in outcomes:
                # A down peer is fine (its expiry sweep will clean up
                # later); anything else is protocol-breaking.
                if not outcome.ok and not isinstance(outcome.error, NetworkError):
                    raise outcome.error
        return promoted

    def delete_links_by_context(self, key: str, value: Any, *, cascade: bool = False) -> int:
        """Delete every owned link whose ``context[key] == value``.

        Non-cascading by default — used to retire a specific link family
        (e.g. one user's tentative back link for a meeting) without
        tearing down the whole association.
        """
        doomed = self.links_by_context(key, value)
        for link in doomed:
            if self.has_link(link.link_id):
                self.delete_link(link.link_id, cascade=cascade)
        return len(doomed)

    def cascade_delete(self, cascade_id: str, visited: list[str]) -> int:
        """Delete every owned link with ``cascade_id`` and keep cascading."""
        self.cascades_received += 1
        with maybe_span(
            self._tracer, "links.cascade", self.user, cascade=cascade_id
        ) as span:
            links = self.all_links()
            doomed = [ln for ln in links if ln.context.get("cascade_id") == cascade_id] + [
                ln for ln in links if ln.link_id == cascade_id
            ]
            count = 0
            for link in doomed:
                if self.has_link(link.link_id):
                    self.delete_link(link.link_id, cascade=True, _visited=visited)
                    count += 1
            span.set(deleted=count)
            return count

    # -- op 5: method invocation mapping ----------------------------------------------

    def add_link_method(
        self,
        source_object: str,
        source_method: str,
        dest_user: str,
        dest_service: str,
        dest_method: str,
    ) -> str:
        """Record that executing ``source_object.source_method`` here must
        trigger ``dest_service.dest_method`` at ``dest_user`` (op 5)."""
        mapping_id = self._ids.next(f"lm-{self.user}")
        self.store.insert(
            LINK_METHOD_TABLE,
            {
                "mapping_id": mapping_id,
                "source_object": source_object,
                "source_method": source_method,
                "dest_user": dest_user,
                "dest_service": dest_service,
                "dest_method": dest_method,
            },
        )
        return mapping_id

    def link_methods(self) -> list[dict[str, Any]]:
        return self.store.select(LINK_METHOD_TABLE)

    def after_method(
        self, object_name: str, method: str, args: list, kwargs: dict, result: Any
    ) -> int:
        """Listener post-invoke hook: fire mapped destination methods.

        This is the *middleware trigger* route of §5.3 — wire it with
        ``listener.add_post_invoke_hook(links.after_method)``. Returns the
        number of destination invocations attempted.
        """
        rows = self.store.select(
            LINK_METHOD_TABLE,
            (where("source_object") == object_name) & (where("source_method") == method),
        )
        fired = 0
        for row in rows:
            try:
                self.engine.execute(
                    row["dest_user"],
                    row["dest_service"],
                    row["dest_method"],
                    {"source_object": object_name, "source_method": method, "args": args},
                )
                fired += 1
            except ReproError:
                # A broken mapping (dest down, service unregistered, bad
                # method) must never fail the *source* invocation that
                # triggered it — the hook runs inside that call.
                continue
        return fired

    # -- op 6: link expiry ------------------------------------------------------------

    def expire_links(self, now: float | None = None) -> list[str]:
        """Delete every owned link whose expiry has passed; returns ids."""
        now = self.clock.now() if now is None else now
        doomed = [ln for ln in self.all_links() if ln.is_expired(now)]
        for link in doomed:
            if self.has_link(link.link_id):
                self.delete_link(link.link_id, cascade=True)
                self.expired += 1
        return [ln.link_id for ln in doomed]

    # -- subscription firing ------------------------------------------------------------

    def fire_subscriptions(self, entity: Any, payload: dict[str, Any]) -> int:
        """Notify peers of every subscription link on ``entity``.

        "Subscription link allows automatic flow of information from a
        source entity to other entities that subscribe to it" (§4.2).
        Unreachable peers are skipped. Returns notifications delivered.
        """
        specs = []
        for link in self.links_for_entity(entity):
            if link.ltype is not LinkType.SUBSCRIPTION:
                continue
            if link.subtype is not LinkSubtype.PERMANENT:
                continue
            for ref in link.refs:
                if ref.on_change is None:
                    continue
                specs.append(
                    CallSpec(ref.user, ref.service, ref.on_change, (ref.entity, payload))
                )
        # The whole fan-out is one scatter-gather wave.
        delivered = 0
        for outcome in self.engine.execute_calls(specs):
            if outcome.ok:
                delivered += 1
            elif not isinstance(outcome.error, NetworkError):
                raise outcome.error
        return delivered


class SyDLinksService(SyDDeviceObject):
    """Remote facade for cross-node link operations (``_syd_links``)."""

    def __init__(self, links: SyDLinks):
        super().__init__(LINKS_SERVICE, links.store)
        self.links = links

    @exported
    def create_link_row(self, row: dict[str, Any]) -> str:
        """Install a link owned by this node's user (used for back links).

        The caller supplies a full link row except id/owner/created_at,
        which are stamped locally.
        """
        link = self.links.create_link(
            ltype=LinkType(row["ltype"]),
            refs=[LinkRef.from_dict(d) for d in row["refs"]],
            subtype=LinkSubtype(row.get("subtype", "permanent")),
            source_entity=row.get("source_entity"),
            constraint=parse_constraint(row.get("constraint")),
            priority=row.get("priority", 0),
            ttl=row.get("ttl"),
            waiting_on=row.get("waiting_on"),
            waiting_group=row.get("waiting_group"),
            context=row.get("context"),
        )
        return link.link_id

    @exported
    def cascade_delete(self, cascade_id: str, visited: list[str]) -> int:
        """Continue a cascading deletion at this node (op 4 step 4)."""
        return self.links.cascade_delete(cascade_id, visited)

    @exported
    def promote_remote(self, link_id: str) -> str:
        """Promote one of this user's tentative links (op 3)."""
        return self.links.promote_link(link_id).link_id

    @exported
    def register_waiting(
        self,
        blocking_link: str,
        waiting_owner: str,
        waiting_link: str,
        priority: int,
        group_id: str | None = None,
    ) -> str:
        """Queue a remote tentative link behind one of this user's links."""
        return self.links.register_waiting(
            blocking_link, waiting_owner, waiting_link, priority, group_id
        )

    @exported
    def get_link_row(self, link_id: str) -> dict[str, Any]:
        """Fetch a link row (for peers validating back links)."""
        return self.links.get_link(link_id).to_row()

    @exported
    def delete_link_remote(self, link_id: str, visited: list[str] | None = None) -> bool:
        """Delete one of this user's links by id, cascading."""
        if not self.links.has_link(link_id):
            return False
        self.links.delete_link(link_id, cascade=True, _visited=visited)
        return True

    @exported
    def list_link_rows(self) -> list[dict[str, Any]]:
        """All links this user owns (diagnostics/tests)."""
        return [ln.to_row() for ln in self.links.all_links()]

    @exported
    def delete_links_by_context(self, key: str, value: Any) -> int:
        """Delete this user's links matching a context entry (no cascade)."""
        return self.links.delete_links_by_context(key, value)
